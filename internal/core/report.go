// Package core is cxlsim's top-level experiment facade: it builds the
// paper's testbed out of the substrate packages, runs any of the paper's
// figures/tables by ID, and renders the same rows/series the paper
// reports. The cmd/cxlbench binary and the root-level benchmarks drive
// this package.
package core

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"

	"cxlsim/internal/fault"
	"cxlsim/internal/par"
	"cxlsim/internal/report"
	"cxlsim/internal/slo"
)

// Report is one regenerated figure or table.
type Report struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
	// Runs holds per-cell windowed metric snapshots (and SLO
	// evaluations) when the experiment ran with Options.WindowNs set;
	// cmd/cxlbench renders them with -report and cmd/cxlreport consumes
	// their JSON dumps. Nil for experiments without windowed support.
	Runs []*report.Run
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// AddNote appends a footnote shown under the table.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// WriteTable renders the report as an aligned text table.
func (r *Report) WriteTable(w io.Writer) {
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(r.Headers)
	sep := make([]string, len(r.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV renders the report as CSV (headers first; notes as trailing
// comment lines).
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Headers); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Options tunes experiment execution.
type Options struct {
	// Quick shrinks op counts and sweeps for fast smoke runs (unit
	// tests, CI); full fidelity is the default.
	Quick bool
	// Seed drives all workload randomness (0 ⇒ 42).
	Seed int64
	// Parallel caps worker goroutines in the experiment fan-out loops
	// (and in RunAll across experiments). 0 means GOMAXPROCS; 1 forces
	// serial execution. Reports are byte-identical at any setting: every
	// parallel loop writes results index-aligned and assembles rows in
	// the original serial order.
	Parallel int
	// Faults, when non-nil, replays the fault schedule inside the
	// device-level serving experiments (fig5, fig8): each cell runs
	// twice — healthy and degraded, on fresh machines — and the report
	// gains degraded-vs-healthy delta columns. Experiments without a
	// per-device serving loop ignore it. With Faults nil the output is
	// byte-identical to builds without the fault subsystem.
	Faults *fault.Schedule
	// WindowNs, when positive, turns on fixed virtual-time windowed
	// metric aggregation inside the serving experiments that support it
	// (fig8): each cell runs with its own registry/tracer/window stack
	// and the Report.Runs slice carries the windowed snapshots. Zero
	// leaves the table output byte-identical to builds without windows.
	WindowNs float64
	// SLO, when non-nil (requires WindowNs > 0), evaluates the spec
	// against every windowed cell; the per-window results ride along in
	// Report.Runs[i].SLO.
	SLO *slo.Spec
	// Shards caps the parallel shards inside sharded-engine experiments
	// (the shard experiment's cluster and fleet runs). 0 or 1 means one
	// shard. Like Parallel, tables are byte-identical at any setting —
	// shards change wall-clock time, never results.
	Shards int
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

// Runner is an experiment generator.
type Runner func(Options) (*Report, error)

// registry maps experiment IDs to runners; populated in experiments.go.
var registry = map[string]Runner{}

// Experiments lists the available experiment IDs, sorted.
func Experiments() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string, opt Options) (*Report, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown experiment %q (have %s)", id, strings.Join(Experiments(), ", "))
	}
	return r(opt)
}

// RunAll executes every registered experiment and returns reports in
// sorted ID order. Experiments run concurrently (opt.Parallel workers;
// each may also fan out internally), but the returned slice — and any
// error — is index-aligned to the sorted ID list, so output matches a
// serial run byte for byte. On error the slice holds the reports that
// precede the first (lowest-ID) failure.
func RunAll(opt Options) ([]*Report, error) {
	ids := Experiments()
	reps := make([]*Report, len(ids))
	errs := make([]error, len(ids))
	par.ForEach(len(ids), opt.Parallel, func(i int) {
		reps[i], errs[i] = Run(ids[i], opt)
	})
	for i, err := range errs {
		if err != nil {
			return reps[:i], fmt.Errorf("core: running %s: %w", ids[i], err)
		}
	}
	return reps, nil
}
