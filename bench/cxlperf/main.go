// Command cxlperf is cxlsim's benchmark: one command that measures the
// end-to-end cost of the paper figures, the DES YCSB path and RESP
// serving (in memory and with durable writes), breaks it down by layer,
// and checks every output it measures.
//
// Usage (from the repository root, or anywhere inside it):
//
//	go -C bench/cxlperf run . [-seed N] [-seconds S] [-trace 0|1|FILE] [workload...]
//	go -C bench/cxlperf run . compare A.json B.json
//	bash bench/cxlperf/run.sh --workload W --seed N --seconds S --trace 0|1
//
// Each workload runs a timed pass, which yields the end-to-end metrics,
// and a separate traced pass, which yields the per-layer metrics; -trace
// 0 or 1 runs only one of them. Every metric is printed as "workload
// metric value unit" with its sample count and quartiles, the full
// results go to a JSON file, and the last line of standard output is a
// JSON object with the correctness tally and the metric medians.
// README.md describes the workloads, metrics and trace.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

func main() {
	if job := os.Getenv(childEnv); job != "" {
		os.Exit(runChild(job))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// env is what a workload pass needs to know about its invocation.
type env struct {
	root, build, tmp string
	seed             int64
	seconds          time.Duration
	quick            bool
	server           string // cxlserve binary, built before any timing
	goldens          fs.FS
	out              io.Writer // human-readable lines
	tr               *tracer   // nil in the timed pass
	tally            *tally
}

// tally counts checked outputs: experiment tables, YCSB cells and RESP
// replies.
type tally struct{ attempted, failed atomic.Int64 }

func (t *tally) check(ok bool) {
	t.attempted.Add(1)
	if !ok {
		t.failed.Add(1)
	}
}

type pass func(e *env, s samples) error

type workloadDef struct {
	name          string
	timed, traced pass
}

// workloads lists the benchmark's workloads; BENCHMARK.json records why
// each was chosen.
var workloads = []workloadDef{
	{"paper-figures", figuresTimed, figuresTraced},
	{"ycsb-static", ycsbTimed, ycsbTraced},
	{"resp-cache", respCache.timed, respCache.traced},
	{"resp-durable", respDurable.timed, respDurable.traced},
}

// Run is one pass of one workload.
type Run struct {
	Workload  string             `json:"workload"`
	Pass      string             `json:"pass"` // "timed" or "traced"
	Seed      int64              `json:"seed"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]*Metric `json:"metrics"`
	Spans     []span             `json:"-"`
}

// Results is the JSON file cxlperf writes and compare reads.
type Results struct {
	Date      string  `json:"date"`
	GoVersion string  `json:"go_version"`
	CPUs      int     `json:"cpus"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Quick     bool    `json:"quick"`
	Runs      []*Run  `json:"runs"`
}

func benchMain(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("cxlperf", flag.ContinueOnError)
	seed := fl.Int64("seed", 42, "workload seed: the same seed gives the same inputs (0 means 42, as in cxlbench)")
	seconds := fl.Float64("seconds", 20, "measured seconds per workload pass")
	only := fl.String("workload", "", "run this workload only (same as naming it as an argument)")
	traceArg := fl.String("trace", "", "0: timed pass only; 1: traced pass only; FILE or empty: both passes, spans written to FILE")
	outPath := fl.String("out", "", "results JSON (default <build>/cxlperf-seed<N>.json)")
	build := fl.String("build", "", "build and scratch directory (default $CARGO_TARGET_DIR, else <repo>/.bench_build)")
	quick := fl.Bool("quick", false, "tiny mode: quick figures, 2k YCSB ops, short RESP phases")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "cxlperf: -seconds must be positive")
		return 2
	}
	names := fl.Args()
	if *only != "" {
		names = append(names, *only)
	}
	defs, err := selectWorkloads(names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cxlperf: %v\n", err)
		return 2
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), quick: *quick, goldens: embeddedGoldens(), out: stdout}
	if e.seed == 0 {
		e.seed = 42
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "cxlperf: %v\n", err)
		return 1
	}
	e.root = root
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "cxlperf: %v\n", err)
		return 1
	}
	e.build = *build
	if e.build == "" {
		e.build = os.Getenv("CARGO_TARGET_DIR")
	}
	if e.build == "" {
		e.build = filepath.Join(root, ".bench_build")
	} else if !filepath.IsAbs(e.build) {
		e.build = filepath.Join(root, e.build)
	}
	timed, traced := *traceArg != "1", *traceArg != "0"
	res, err := run(e, spec, defs, timed, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cxlperf: %v\n", err)
		return 1
	}
	if traced {
		path := *traceArg
		if path == "" || path == "1" {
			path = filepath.Join(e.build, fmt.Sprintf("cxlperf-trace-seed%d.json", e.seed))
		}
		if err := writeTrace(path, res.Runs); err != nil {
			fmt.Fprintf(os.Stderr, "cxlperf: %v\n", err)
			return 1
		}
	}
	if *outPath == "" {
		*outPath = filepath.Join(e.build, fmt.Sprintf("cxlperf-seed%d.json", e.seed))
	}
	if err := writeJSON(*outPath, res); err != nil {
		fmt.Fprintf(os.Stderr, "cxlperf: %v\n", err)
		return 1
	}
	line, err := resultLine(spec, res.Runs, len(defs) > 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cxlperf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func selectWorkloads(names []string) ([]workloadDef, error) {
	if len(names) == 0 {
		return workloads, nil
	}
	byName := map[string]workloadDef{}
	var have []string
	for _, w := range workloads {
		byName[w.name] = w
		have = append(have, w.name)
	}
	var defs []workloadDef
	for _, n := range names {
		w, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %s)", n, strings.Join(have, ", "))
		}
		defs = append(defs, w)
	}
	return defs, nil
}

// run prepares the build directory and the cxlserve binary, then runs
// the requested passes of every workload, printing each pass's metrics.
// End-to-end metrics come from timed passes only, so a traced pass drops
// its own measurements of them.
func run(e *env, spec *benchSpec, defs []workloadDef, timed, traced bool) (*Results, error) {
	e.tmp = filepath.Join(e.build, "tmp")
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return nil, err
	}
	for _, d := range defs {
		if strings.HasPrefix(d.name, "resp-") {
			var err error
			if e.server, err = buildServer(e.root, e.build); err != nil {
				return nil, err
			}
			break
		}
	}
	res := &Results{
		Date: time.Now().UTC().Format("2006-01-02"), GoVersion: runtime.Version(), CPUs: runtime.NumCPU(),
		Seed: e.seed, Seconds: e.seconds.Seconds(), Quick: e.quick,
	}
	for _, d := range defs {
		for _, p := range []struct {
			name string
			on   bool
			fn   pass
		}{{"timed", timed, d.timed}, {"traced", traced, d.traced}} {
			if !p.on {
				continue
			}
			pe := *e
			pe.tally = &tally{}
			if p.name == "traced" {
				pe.tr = newTracer()
			}
			s := samples{}
			if err := p.fn(&pe, s); err != nil {
				return nil, fmt.Errorf("%s (%s pass): %w", d.name, p.name, err)
			}
			r := &Run{Workload: d.name, Pass: p.name, Seed: e.seed, Metrics: map[string]*Metric{},
				Attempted: pe.tally.attempted.Load(), Failed: pe.tally.failed.Load()}
			if pe.tr != nil {
				for _, m := range spec.EndToEnd {
					delete(s, m.Name)
				}
			}
			for name, xs := range s {
				r.Metrics[name] = summarize(name, xs)
			}
			if pe.tr != nil {
				r.Spans = pe.tr.finish()
			}
			printRun(e.out, r)
			res.Runs = append(res.Runs, r)
		}
	}
	return res, nil
}

// printRun writes one line per metric: workload, metric, value, unit,
// then the sample count, median and quartiles.
func printRun(w io.Writer, r *Run) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%s %s %.6g %s n=%d median=%.6g q1=%.6g q3=%.6g\n", r.Workload, n, m.Value, m.Unit, m.N, m.Median, m.Q1, m.Q3)
	}
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%s fail_ratio %g ratio attempted=%d failed=%d pass=%s\n", r.Workload, ratio, r.Attempted, r.Failed, r.Pass)
	writeSummary(w, r.Workload, r.Spans)
}

// resultLine renders the final JSON line: the correctness tally and, per
// metric BENCHMARK.json names, the run's value. A timed pass must produce
// every end-to-end metric; a per-layer metric a workload never exercises
// reads 0. With several workloads, names are prefixed "workload/".
func resultLine(spec *benchSpec, runs []*Run, prefix bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, r := range runs {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		list, required := spec.PerLayer, false
		if r.Pass == "timed" {
			list, required = spec.EndToEnd, true
		}
		for _, sm := range list {
			v := value{Unit: sm.Unit}
			if m, ok := r.Metrics[sm.Name]; ok {
				v.Value = m.Value
			} else if required {
				return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", r.Workload, sm.Name)
			}
			key := sm.Name
			if prefix {
				key = r.Workload + "/" + key
			}
			out.Metrics[key] = v
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	return json.Marshal(out)
}

// benchSpec is the part of BENCHMARK.json cxlperf reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// findRoot walks up from the working directory to the cxlsim module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(b, []byte("module cxlsim\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the cxlsim repository (no go.mod declaring module cxlsim)")
		}
		dir = parent
	}
}

// buildServer builds cmd/cxlserve into the build directory.
func buildServer(root, build string) (string, error) {
	bin := filepath.Join(build, "cxlserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cxlserve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cxlserve: %w", err)
	}
	return bin, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeTrace writes the traced passes' spans, grouped by workload.
func writeTrace(path string, runs []*Run) error {
	spans := map[string][]span{}
	for _, r := range runs {
		if r.Pass == "traced" {
			spans[r.Workload] = r.Spans
		}
	}
	return writeJSON(path, map[string]any{"spans": spans})
}
