// Command cxlycsb runs a YCSB workload (stock property-file format)
// against the simulated KeyDB deployment and prints YCSB-client-style
// output — the §4.1 methodology as a standalone tool.
//
// Usage:
//
//	cxlycsb -config MMEM -workload A
//	cxlycsb -config 1:1 -spec path/to/workloada -ops 50000
//	cxlycsb -config Hot-Promote -workload B -trace trace.json  # open in Perfetto
//	cxlycsb -config 1:1 -workload A -faults examples/degrade-cxl.json
//	cxlycsb -config 1:1 -workload A -faults examples/degrade-cxl.json \
//	    -slo examples/slo/kvstore.json -report report.html
//	cxlycsb -list-configs
//
// -faults replays a deterministic fault schedule (docs/RELIABILITY.md)
// in a second, degraded pass on a fresh deployment and appends [FAULT]
// delta lines comparing it to the healthy run.
//
// -slo evaluates an SLO spec (docs/OBSERVABILITY.md) over fixed
// virtual-time windows in every pass and prints per-alert firing
// summaries; -report renders the windowed metrics and SLO evaluations
// of all passes as a self-contained HTML report, and -dump writes each
// pass's windowed snapshot as <prefix>-<label>.json for cxlreport.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cxlsim/internal/cliutil"
	"cxlsim/internal/fault"
	"cxlsim/internal/kvstore"
	"cxlsim/internal/obs"
	"cxlsim/internal/report"
	"cxlsim/internal/sim"
	"cxlsim/internal/slo"
	"cxlsim/internal/workload"
)

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cxlycsb: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cxlycsb: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	config := flag.String("config", "MMEM", "Table-1 configuration (see -list-configs)")
	wl := flag.String("workload", "A", "built-in YCSB workload: A, B, C, or D")
	spec := flag.String("spec", "", "path to a YCSB property file (overrides -workload)")
	ops := flag.Int("ops", 40_000, "measured operations")
	seed := flag.Int64("seed", 42, "workload seed")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON file (virtual time; load in Perfetto)")
	metrics := flag.String("metrics", "", "write a Prometheus text snapshot of the run's metrics")
	faults := flag.String("faults", "", "replay this fault schedule (JSON) in a degraded second pass")
	sloPath := flag.String("slo", "", "evaluate this SLO spec (JSON) over virtual-time windows")
	windowsMs := flag.Float64("windows", 0, "window length, virtual ms (0 = the SLO spec's window_ms, else 10)")
	reportPath := flag.String("report", "", "write a self-contained HTML report of the windowed run(s)")
	dump := flag.String("dump", "", "write each pass's windowed snapshot as <prefix>-<label>.json")
	spillDir := flag.String("spill-dir", "", "durable on-disk spill tier root (Flash configs only); each pass uses its own subdirectory")
	nodes := cliutil.Nodes(flag.CommandLine)
	shards := cliutil.Shards(flag.CommandLine)
	list := flag.Bool("list-configs", false, "list configurations and exit")
	flag.Parse()

	if *list {
		for _, c := range kvstore.Table1Configs() {
			fmt.Println(c)
		}
		return
	}

	if *ops < 1 {
		usageError("-ops must be >= 1")
	}
	if *windowsMs < 0 {
		usageError("-windows cannot be negative")
	}
	if err := cliutil.CheckNodes(*nodes); err != nil {
		usageError("%v", err)
	}
	if err := cliutil.CheckShards(*shards); err != nil {
		usageError("%v", err)
	}
	if *nodes == 1 && *shards != 1 {
		usageError("-shards needs -nodes > 1 (the single-node run is already one timeline)")
	}
	var wlSet, faultsSet bool
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "workload":
			wlSet = true
		case "faults":
			faultsSet = true
		}
	})
	if wlSet && *spec != "" {
		usageError("-workload and -spec conflict; pick one")
	}
	if faultsSet && *faults == "" {
		usageError("-faults needs a schedule file")
	}
	var schedule *fault.Schedule
	if *faults != "" {
		s, err := fault.LoadSchedule(*faults)
		if err != nil {
			fatal("%v", err)
		}
		schedule = s
	}

	var sloSpec *slo.Spec
	if *sloPath != "" {
		s, err := slo.Load(*sloPath)
		if err != nil {
			fatal("%v", err)
		}
		sloSpec = s
	}
	// Any windowed consumer (SLO evaluation, HTML report, JSON dump, or
	// an explicit -windows) turns on windowed aggregation for every pass.
	windowed := sloSpec != nil || *reportPath != "" || *dump != "" || *windowsMs > 0
	windowNs := *windowsMs * 1e6
	if windowNs == 0 {
		if sloSpec != nil && sloSpec.WindowMs > 0 {
			windowNs = sloSpec.WindowMs * 1e6
		} else {
			windowNs = 10 * 1e6 // one kvstore epoch
		}
	}

	mix, records, err := resolveWorkload(*wl, *spec)
	if err != nil {
		fatal("%v", err)
	}

	if *nodes > 1 {
		// Cluster mode: the sharded multi-node path. The windowed stack
		// and the durable spill tier are single-node machinery.
		if windowed {
			usageError("-slo/-windows/-report/-dump are not supported with -nodes > 1")
		}
		if *spillDir != "" {
			usageError("-spill-dir is not supported with -nodes > 1")
		}
		runClusterMode(*config, mix, records, *nodes, *shards, *ops, *seed,
			schedule, *faults, *trace, *metrics)
		return
	}

	opts := kvstore.DeployOptions{SimKeys: 1 << 16}
	if records > 0 && records < uint64(opts.SimKeys) {
		opts.SimKeys = int(records)
	}
	if *spillDir != "" {
		// Per-pass subdirectories keep the healthy and degraded logs
		// (and their recovery reports) independent.
		opts.SpillDir = filepath.Join(*spillDir, "healthy")
	}
	d, err := kvstore.Deploy(kvstore.ConfigName(*config), opts)
	if err != nil {
		fatal("%v", err)
	}
	d.Warm(mix, 120, 100_000, *seed)
	rc := d.RunConfigFor(mix, *seed)
	rc.Ops = *ops

	instrumented := *trace != "" || *metrics != "" || windowed
	var ro *runObs
	if instrumented {
		ro = newRunObs(windowed, windowNs, sloSpec)
		ro.arm(&rc)
		obs.InstrumentMemsim(rc.Metrics)
		defer obs.InstrumentMemsim(nil)
	}
	res := kvstore.Run(d.Store, d.Alloc, rc)

	if *trace != "" {
		if err := writeTrace(*trace, rc.Tracer); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "cxlycsb: wrote %s (%d events, tracks: %s)\n",
			*trace, rc.Tracer.Len(), strings.Join(rc.Tracer.Tracks(), ", "))
	}
	if *metrics != "" {
		if err := writeMetrics(*metrics, rc.Metrics); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "cxlycsb: wrote %s\n", *metrics)
	}

	// YCSB-client-flavoured report.
	fmt.Printf("[OVERALL], Configuration, %s\n", *config)
	fmt.Printf("[OVERALL], Workload, %s\n", mix.Name)
	fmt.Printf("[OVERALL], Throughput(ops/sec), %.1f\n", res.ThroughputOpsPerSec)
	for _, p := range []float64{50, 90, 95, 99, 99.9} {
		fmt.Printf("[READ], %gthPercentileLatency(us), %.1f\n", p, res.ReadLatency.Percentile(p)/1e3)
	}
	fmt.Printf("[READ], AverageLatency(us), %.1f\n", res.ReadLatency.Mean()/1e3)
	fmt.Printf("[CACHE], HitRate, %.4f\n", res.HitRate)
	if res.Migrated > 0 {
		fmt.Printf("[TIERING], MigratedBytes, %d\n", res.Migrated)
	}
	if *spillDir != "" {
		printSpill(d.Store, "healthy")
		if err := d.Store.CloseSpill(); err != nil {
			fatal("closing spill tier: %v", err)
		}
	}

	runs := []*report.Run{ro.runDump("healthy", *config, mix.Name, "")}

	if schedule != nil {
		dopts := opts
		if *spillDir != "" {
			dopts.SpillDir = filepath.Join(*spillDir, "degraded")
		}
		fr, dro, dstore, err := runDegraded(*config, dopts, mix, *seed, *ops, schedule, windowed, windowNs, sloSpec)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("[FAULT], Schedule, %s\n", *faults)
		fmt.Printf("[FAULT], Throughput(ops/sec), %.1f (%+.1f%%)\n",
			fr.ThroughputOpsPerSec, delta(fr.ThroughputOpsPerSec, res.ThroughputOpsPerSec))
		for _, p := range []float64{50, 99} {
			fmt.Printf("[FAULT], READ %gthPercentileLatency(us), %.1f (%+.1f%%)\n",
				p, fr.ReadLatency.Percentile(p)/1e3,
				delta(fr.ReadLatency.Percentile(p), res.ReadLatency.Percentile(p)))
		}
		fmt.Printf("[FAULT], Timeouts, %d\n", fr.Timeouts)
		fmt.Printf("[FAULT], Retries, %d\n", fr.Retries)
		fmt.Printf("[FAULT], FailedOps, %d\n", fr.Failed)
		if *spillDir != "" {
			printSpill(dstore, "degraded")
			if err := dstore.CloseSpill(); err != nil {
				fatal("closing spill tier: %v", err)
			}
		}
		runs = append(runs, dro.runDump("degraded", *config, mix.Name, *faults))
	}

	var live []*report.Run
	for _, r := range runs {
		if r != nil {
			live = append(live, r)
		}
	}
	if sloSpec != nil {
		for _, r := range live {
			printSLO(r)
		}
	}
	if *dump != "" {
		for _, r := range live {
			path := *dump + "-" + r.Label + ".json"
			if err := writeRunDump(path, r); err != nil {
				fatal("%v", err)
			}
			fmt.Fprintf(os.Stderr, "cxlycsb: wrote %s (%d windows)\n", path, len(r.Windows))
		}
	}
	if *reportPath != "" {
		if err := writeReport(*reportPath, live); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "cxlycsb: wrote %s (%d run(s))\n", *reportPath, len(live))
	}
}

// runClusterMode executes the -nodes > 1 path: a healthy sharded
// cluster run (and, with -faults, a degraded second pass on fresh
// deployments) printing the same YCSB-client-flavoured report plus
// [CLUSTER] lines. Output is byte-identical at any -shards value.
func runClusterMode(config string, mix workload.YCSBMix, records uint64, nodes, shards, ops int, seed int64,
	schedule *fault.Schedule, faultsPath, tracePath, metricsPath string) {
	opts := kvstore.DeployOptions{SimKeys: 1 << 16}
	if records > 0 && records < uint64(opts.SimKeys) {
		opts.SimKeys = int(records)
	}
	perNode := ops / nodes
	if perNode < 1 {
		perNode = 1
	}
	cc := kvstore.ClusterConfig{
		Nodes:      nodes,
		Shards:     shards,
		Config:     kvstore.ConfigName(config),
		Deploy:     opts,
		Mix:        mix,
		OpsPerNode: perNode,
		Seed:       seed,
		WarmEpochs: 120,
		WarmDraws:  100_000,
	}
	if metricsPath != "" {
		cc.Metrics = obs.NewRegistry()
	}
	if tracePath != "" {
		cc.Tracer = obs.NewTracer()
	}
	res, err := kvstore.RunCluster(cc)
	if err != nil {
		fatal("%v", err)
	}

	if tracePath != "" {
		if err := writeTrace(tracePath, cc.Tracer); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "cxlycsb: wrote %s (%d events, node 0 only)\n", tracePath, cc.Tracer.Len())
	}
	if metricsPath != "" {
		if err := writeMetrics(metricsPath, cc.Metrics); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "cxlycsb: wrote %s\n", metricsPath)
	}

	m := res.Merged
	fmt.Printf("[OVERALL], Configuration, %s\n", config)
	fmt.Printf("[OVERALL], Workload, %s\n", mix.Name)
	fmt.Printf("[OVERALL], Nodes, %d\n", nodes)
	// The shard count is an execution detail, not a result: it goes to
	// stderr so stdout is byte-identical at any -shards value.
	fmt.Fprintf(os.Stderr, "cxlycsb: %d nodes on %d shard(s)\n", nodes, res.Shards)
	fmt.Printf("[OVERALL], Throughput(ops/sec), %.1f\n", m.ThroughputOpsPerSec)
	for _, p := range []float64{50, 90, 95, 99, 99.9} {
		fmt.Printf("[READ], %gthPercentileLatency(us), %.1f\n", p, m.ReadLatency.Percentile(p)/1e3)
	}
	fmt.Printf("[READ], AverageLatency(us), %.1f\n", m.ReadLatency.Mean()/1e3)
	fmt.Printf("[CACHE], HitRate, %.4f\n", m.HitRate)
	fmt.Printf("[CLUSTER], ForwardedOps, %d\n", m.Forwarded)
	fmt.Printf("[CLUSTER], Epochs, %d\n", res.Epochs)
	fmt.Printf("[CLUSTER], Events, %d\n", res.Events)
	for i, r := range res.PerNode {
		fmt.Printf("[CLUSTER], Node %d, Throughput(ops/sec), %.1f\n", i, r.ThroughputOpsPerSec)
	}

	if schedule != nil {
		dcc := cc
		dcc.FaultSchedule = schedule
		dcc.Metrics = nil
		dcc.Tracer = nil
		dres, err := kvstore.RunCluster(dcc)
		if err != nil {
			fatal("%v", err)
		}
		dm := dres.Merged
		fmt.Printf("[FAULT], Schedule, %s\n", faultsPath)
		fmt.Printf("[FAULT], Throughput(ops/sec), %.1f (%+.1f%%)\n",
			dm.ThroughputOpsPerSec, delta(dm.ThroughputOpsPerSec, m.ThroughputOpsPerSec))
		for _, p := range []float64{50, 99} {
			fmt.Printf("[FAULT], READ %gthPercentileLatency(us), %.1f (%+.1f%%)\n",
				p, dm.ReadLatency.Percentile(p)/1e3,
				delta(dm.ReadLatency.Percentile(p), m.ReadLatency.Percentile(p)))
		}
		fmt.Printf("[FAULT], Timeouts, %d\n", dm.Timeouts)
		fmt.Printf("[FAULT], Retries, %d\n", dm.Retries)
		fmt.Printf("[FAULT], FailedOps, %d\n", dm.Failed)
	}
}

// printSLO appends [SLO] lines: per-objective attainment over all
// windows and per-alert firing window counts.
func printSLO(r *report.Run) {
	if r.SLO == nil {
		return
	}
	met := map[string]int{}
	firing := map[string]int{}
	for _, w := range r.SLO.Windows {
		for _, o := range w.Objectives {
			if o.Met {
				met[o.Name]++
			}
		}
		for _, a := range w.Alerts {
			if a.Firing {
				firing[a.Name]++
			}
		}
	}
	n := len(r.SLO.Windows)
	for _, o := range r.SLO.Spec.Objectives {
		fmt.Printf("[SLO], %s, %s, WindowsMet, %d/%d\n", r.Label, o.Name, met[o.Name], n)
	}
	for _, a := range r.SLO.Spec.Alerts {
		fmt.Printf("[SLO], %s, alert %s, FiringWindows, %d/%d\n", r.Label, a.Name, firing[a.Name], n)
	}
}

// runObs bundles one pass's observability surface: registry, tracer,
// and (when windowed) the window aggregator plus SLO evaluator.
type runObs struct {
	reg  *obs.Registry
	tr   *obs.Tracer
	win  *obs.Windows
	eval *slo.Evaluator
}

func newRunObs(windowed bool, windowNs float64, spec *slo.Spec) *runObs {
	ro := &runObs{reg: obs.NewRegistry(), tr: obs.NewTracer()}
	if windowed {
		ro.win = obs.NewWindows(ro.reg, sim.Time(windowNs))
		if spec != nil {
			ro.eval = slo.NewEvaluator(*spec)
			ro.eval.Instrument(ro.reg, ro.tr)
			ro.eval.Bind(ro.win)
		}
	}
	return ro
}

// arm points a RunConfig at this pass's observability surface.
func (ro *runObs) arm(rc *kvstore.RunConfig) {
	rc.Metrics = ro.reg
	rc.Tracer = ro.tr
	rc.Windows = ro.win
}

// runDump assembles the pass into a report.Run, or nil when windowed
// aggregation was off.
func (ro *runObs) runDump(label, config, wl, schedule string) *report.Run {
	if ro == nil || ro.win == nil {
		return nil
	}
	r := &report.Run{
		Label:    label,
		Config:   config,
		Workload: wl,
		Schedule: schedule,
		WindowNs: float64(ro.win.Length()),
		Windows:  ro.win.Snapshot(),
	}
	if ro.eval != nil {
		r.SLO = ro.eval.Evaluation()
	}
	return r
}

// delta is the percent change of degraded vs healthy.
func delta(degraded, healthy float64) float64 {
	if healthy == 0 {
		return 0
	}
	return (degraded/healthy - 1) * 100
}

// runDegraded replays the fault schedule against a fresh deployment of
// the same configuration, warmed identically to the healthy pass, with
// its own registry/window stack so the two passes never share state.
func runDegraded(config string, opts kvstore.DeployOptions, mix workload.YCSBMix, seed int64, ops int,
	s *fault.Schedule, windowed bool, windowNs float64, spec *slo.Spec) (kvstore.Result, *runObs, *kvstore.Store, error) {
	d, err := kvstore.Deploy(kvstore.ConfigName(config), opts)
	if err != nil {
		return kvstore.Result{}, nil, nil, err
	}
	d.Warm(mix, 120, 100_000, seed)
	rc, err := d.RunConfigWithFaults(mix, seed, s)
	if err != nil {
		return kvstore.Result{}, nil, nil, err
	}
	rc.Ops = ops
	var ro *runObs
	if windowed {
		ro = newRunObs(true, windowNs, spec)
		ro.arm(&rc)
	}
	return kvstore.Run(d.Store, d.Alloc, rc), ro, d.Store, nil
}

// printSpill appends [SPILL] lines for one pass of the durable tier:
// I/O totals, the recovery report from opening the directory, and —
// when a brownout was in play — the degraded-mode accounting.
func printSpill(st *kvstore.Store, label string) {
	s := st.SpillStats()
	fmt.Printf("[SPILL], %s, RecordsWritten, %d\n", label, s.RecordsWritten)
	fmt.Printf("[SPILL], %s, LiveKeys, %d\n", label, s.LiveKeys)
	fmt.Printf("[SPILL], %s, Segments, %d\n", label, s.Segments)
	fmt.Printf("[SPILL], %s, Fsyncs, %d\n", label, s.Fsyncs)
	fmt.Printf("[SPILL], %s, WriteAmplification, %.3f\n", label, s.WriteAmplification())
	if rep := st.SpillRecovery(); rep != nil {
		fmt.Printf("[SPILL], %s, RecoveredLiveKeys, %d\n", label, rep.LiveKeys)
		fmt.Printf("[SPILL], %s, RecoveryClean, %t\n", label, rep.Clean())
	}
	shed, catchup, mismatch := st.SpillCounts()
	if shed+catchup+mismatch > 0 {
		fmt.Printf("[SPILL], %s, ShedWrites, %d\n", label, shed)
		fmt.Printf("[SPILL], %s, CatchupWrites, %d\n", label, catchup)
		fmt.Printf("[SPILL], %s, PendingDirtyKeys, %d\n", label, st.SpillDirty())
		fmt.Printf("[SPILL], %s, ReadMismatches, %d\n", label, mismatch)
	}
}

// writeFile creates path, hands fn a buffered writer, and surfaces
// every failure — fn's error, the buffer flush, AND the close, which is
// where deferred write errors (ENOSPC, quota) actually appear on many
// filesystems — as a single command failure. No dump may silently
// truncate.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	werr := fn(w)
	if werr == nil {
		werr = w.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("writing %s: %w", path, werr)
	}
	return nil
}

// writeRunDump serializes one pass's windowed snapshot + SLO evaluation
// as JSON for cxlreport.
func writeRunDump(path string, r *report.Run) error {
	return writeFile(path, r.WriteJSON)
}

// writeReport renders the passes as a self-contained HTML report.
func writeReport(path string, runs []*report.Run) error {
	return writeFile(path, func(w io.Writer) error { return report.WriteHTML(w, runs) })
}

// writeTrace serializes the run's virtual-time trace as Chrome
// trace-event JSON.
func writeTrace(path string, tr *obs.Tracer) error {
	return writeFile(path, tr.WriteJSON)
}

// writeMetrics dumps the registry in Prometheus text format.
func writeMetrics(path string, reg *obs.Registry) error {
	return writeFile(path, func(w io.Writer) error { return obs.WriteProm(w, reg.Snapshot()) })
}

// resolveWorkload picks the op mix from a spec file or the built-ins.
func resolveWorkload(builtin, specPath string) (workload.YCSBMix, uint64, error) {
	if specPath != "" {
		f, err := os.Open(specPath)
		if err != nil {
			return workload.YCSBMix{}, 0, err
		}
		defer f.Close()
		return workload.ParseSpec(f)
	}
	switch strings.ToUpper(builtin) {
	case "A":
		return workload.YCSBA, 0, nil
	case "B":
		return workload.YCSBB, 0, nil
	case "C":
		return workload.YCSBC, 0, nil
	case "D":
		return workload.YCSBD, 0, nil
	default:
		return workload.YCSBMix{}, 0, fmt.Errorf("unknown workload %q (want A-D or -spec)", builtin)
	}
}
