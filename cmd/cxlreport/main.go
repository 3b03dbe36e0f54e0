// Command cxlreport renders one or more windowed run dumps (written by
// cxlycsb/cxlbench with -dump, or assembled by hand) into a
// self-contained HTML scenario report: per-window latency percentiles,
// rates, SLO attainment, and the burn-rate alert timeline.
//
//	cxlreport -o report.html healthy.json degraded.json
//
// Output is byte-identical for identical inputs, so reports can be
// golden-tested (see make report-smoke).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cxlsim/internal/cliutil"
	"cxlsim/internal/report"
)

func main() {
	out := flag.String("o", "report.html", "output HTML path (- for stdout)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cxlreport [-o report.html] run.json [run.json ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	runs := make([]*report.Run, 0, flag.NArg())
	for _, path := range flag.Args() {
		r, err := report.Load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cxlreport:", err)
			os.Exit(1)
		}
		runs = append(runs, r)
	}

	if err := render(*out, runs); err != nil {
		fmt.Fprintln(os.Stderr, "cxlreport:", err)
		os.Exit(1)
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "cxlreport: wrote %s (%d run(s))\n", *out, len(runs))
	}
}

// render writes the HTML report to out ("-" for stdout); a partial
// report fails the command (see cliutil.WriteFile).
func render(out string, runs []*report.Run) error {
	return cliutil.WriteFile(out, func(w io.Writer) error { return report.WriteHTML(w, runs) })
}
