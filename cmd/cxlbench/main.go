// Command cxlbench regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	cxlbench [-quick] [-seed N] [-parallel N] all
//	cxlbench [-quick] [-seed N] fig3 fig5 table3 ...
//	cxlbench -list
//
// Experiments fan out onto -parallel worker goroutines (default
// GOMAXPROCS); warm-up keys are drawn one batch ahead on their own
// goroutine and fan out over GOMAXPROCS whatever -parallel says, so
// GOMAXPROCS=1 is the single-core run. Tables are byte-identical at any
// parallelism. Elapsed
// wall-clock per experiment goes to stderr so piped table/CSV output
// stays clean.
//
// -faults <file> replays a deterministic fault schedule (see
// docs/RELIABILITY.md) inside the serving experiments: fig5 and fig8
// each gain a degraded pass and report degraded-vs-healthy deltas.
//
// -windows turns on fixed virtual-time windowed metric aggregation in
// the experiments that support it (fig8); -slo evaluates an SLO spec
// over those windows, and -report renders every windowed run collected
// across the requested experiments as one self-contained HTML report
// (see docs/OBSERVABILITY.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"cxlsim/internal/cliutil"
	"cxlsim/internal/core"
	"cxlsim/internal/prof"
	"cxlsim/internal/report"
	"cxlsim/internal/slo"
)

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cxlbench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// config carries the validated flag values into run().
type config struct {
	ids        []string
	opt        core.Options
	format     string
	reportPath string
	cpuprofile string
	memprofile string
}

func main() {
	cfg := parseFlags()
	// Everything after the profiler starts lives in run(): its deferred
	// stop executes on every return path, so an error exit still writes
	// complete -cpuprofile/-memprofile files.
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "cxlbench: %v\n", err)
		os.Exit(1)
	}
}

// parseFlags parses and validates the command line and loads the -faults
// and -slo inputs. It exits before any profile starts, so exiting here
// skips no cleanup.
func parseFlags() config {
	quick := flag.Bool("quick", false, "shrink op counts and sweeps for a fast smoke run")
	seed := flag.Int64("seed", 0, "workload seed (0 = default 42)")
	list := flag.Bool("list", false, "list available experiments and exit")
	format := flag.String("format", "table", "output format: table or csv")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines per experiment fan-out (1 = serial experiments; warm-up key batches still use GOMAXPROCS, so GOMAXPROCS=1 runs on one core; output is identical either way)")
	shards := cliutil.Shards(flag.CommandLine)
	faults := flag.String("faults", "", "replay this fault schedule (JSON) in the serving experiments")
	sloPath := flag.String("slo", "", "evaluate this SLO spec (JSON) over windowed experiment cells")
	windowsMs := flag.Float64("windows", 0, "windowed metric aggregation, virtual ms (0 = off; -slo/-report default it to the spec's window_ms or 10)")
	reportPath := flag.String("report", "", "write windowed runs as a self-contained HTML report")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cxlbench [-quick] [-seed N] [-parallel N] [-faults FILE] all | <experiment>...\n")
		fmt.Fprintf(os.Stderr, "experiments: %s\n", strings.Join(core.Experiments(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(core.Experiments(), "\n"))
		os.Exit(0)
	}
	ids := flag.Args()
	if len(ids) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = core.Experiments()
	}
	if *parallel < 1 {
		usageError("-parallel must be >= 1")
	}
	if err := cliutil.CheckShards(*shards); err != nil {
		usageError("%v", err)
	}
	if *format != "table" && *format != "csv" {
		usageError("unknown format %q (want table or csv)", *format)
	}
	if *cpuprofile != "" && *cpuprofile == *memprofile {
		usageError("-cpuprofile and -memprofile cannot share a file")
	}
	if *windowsMs < 0 {
		usageError("-windows cannot be negative")
	}
	if err := cliutil.CheckInputs(flag.CommandLine); err != nil {
		usageError("%v", err)
	}
	schedule, sloSpec, err := cliutil.LoadInputs(*faults, *sloPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cxlbench: %v\n", err)
		os.Exit(1)
	}
	var windowNs float64
	if *windowsMs > 0 || sloSpec != nil || *reportPath != "" {
		windowNs = slo.WindowNs(*windowsMs, sloSpec, 10e6) // one kvstore epoch
	}
	return config{
		ids: ids,
		opt: core.Options{Quick: *quick, Seed: *seed, Parallel: *parallel, Faults: schedule,
			WindowNs: windowNs, SLO: sloSpec, Shards: *shards},
		format:     *format,
		reportPath: *reportPath,
		cpuprofile: *cpuprofile,
		memprofile: *memprofile,
	}
}

func run(cfg config) error {
	stopProf, err := prof.Start(cfg.cpuprofile, cfg.memprofile)
	if err != nil {
		return err
	}
	defer stopProf()

	var windowedRuns []*report.Run
	for _, id := range cfg.ids {
		start := time.Now()
		rep, err := core.Run(id, cfg.opt)
		elapsed := time.Since(start)
		if err != nil {
			return err
		}
		windowedRuns = append(windowedRuns, rep.Runs...)
		if cfg.format == "csv" {
			if err := rep.WriteCSV(os.Stdout); err != nil {
				return err
			}
		} else {
			rep.WriteTable(os.Stdout)
		}
		fmt.Fprintf(os.Stderr, "cxlbench: %s in %s (parallel=%d)\n", id, elapsed.Round(time.Millisecond), cfg.opt.Parallel)
	}
	if cfg.reportPath == "" {
		return nil
	}
	if len(windowedRuns) == 0 {
		return fmt.Errorf("-report: no windowed runs collected (only fig8 supports windows)")
	}
	if err := cliutil.WriteFile(cfg.reportPath, func(w io.Writer) error { return report.WriteHTML(w, windowedRuns) }); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cxlbench: wrote %s (%d run(s))\n", cfg.reportPath, len(windowedRuns))
	return nil
}
