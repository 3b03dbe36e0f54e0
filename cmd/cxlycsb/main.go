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
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cxlsim/internal/cliutil"
	"cxlsim/internal/fault"
	"cxlsim/internal/kvstore"
	"cxlsim/internal/obs"
	"cxlsim/internal/report"
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
	wlSet := false
	flag.Visit(func(f *flag.Flag) { wlSet = wlSet || f.Name == "workload" })
	if wlSet && *spec != "" {
		usageError("-workload and -spec conflict; pick one")
	}
	if err := cliutil.CheckInputs(flag.CommandLine); err != nil {
		usageError("%v", err)
	}
	schedule, sloSpec, err := cliutil.LoadInputs(*faults, *sloPath)
	if err != nil {
		fatal("%v", err)
	}
	// Any windowed consumer (SLO evaluation, HTML report, JSON dump, or
	// an explicit -windows) turns on windowed aggregation for every pass.
	windowed := sloSpec != nil || *reportPath != "" || *dump != "" || *windowsMs > 0
	var windowNs float64
	if windowed {
		windowNs = slo.WindowNs(*windowsMs, sloSpec, 10e6) // one kvstore epoch
	}

	mix, records, err := resolveWorkload(*wl, *spec)
	if err != nil {
		fatal("%v", err)
	}
	opts := kvstore.DeployOptions{SimKeys: 1 << 16}
	if records > 0 && records < uint64(opts.SimKeys) {
		opts.SimKeys = int(records)
	}

	if *nodes > 1 {
		// Cluster mode: the sharded multi-node path. The windowed stack
		// is single-node machinery.
		if windowed {
			usageError("-slo/-windows/-report/-dump are not supported with -nodes > 1")
		}
		runClusterMode(*config, mix, opts, *nodes, *shards, *ops, *seed,
			schedule, *faults, *trace, *metrics)
		return
	}

	d, err := kvstore.Deploy(kvstore.ConfigName(*config), opts)
	if err != nil {
		fatal("%v", err)
	}
	d.Warm(mix, 120, 100_000, *seed)
	// The degraded pass starts from the same warm state.
	warm := d.SaveWarm()
	rc := d.RunConfigFor(mix, *seed)
	rc.Ops = *ops

	var pass *report.Pass
	if *trace != "" || *metrics != "" || windowed {
		pass = report.NewPass(windowNs, sloSpec)
		rc.Metrics, rc.Tracer, rc.Windows = pass.Metrics, pass.Tracer, pass.Windows
		obs.InstrumentMemsim(rc.Metrics)
		defer obs.InstrumentMemsim(nil)
	}
	res := kvstore.Run(d.Store, d.Alloc, rc)
	writeObs(*trace, *metrics, rc.Tracer, rc.Metrics, "tracks: "+strings.Join(rc.Tracer.Tracks(), ", "))

	printResult(*config, mix.Name, 1, res)

	runs := []*report.Run{pass.Run("healthy", *config, mix.Name, "")}

	if schedule != nil {
		var dpass *report.Pass
		if windowed {
			dpass = report.NewPass(windowNs, sloSpec)
		}
		fr, err := runDegraded(*config, opts, warm, mix, *seed, *ops, schedule, dpass)
		if err != nil {
			fatal("%v", err)
		}
		printFault(*faults, res, fr)
		runs = append(runs, dpass.Run("degraded", *config, mix.Name, *faults))
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
			if err := cliutil.WriteFile(path, r.WriteJSON); err != nil {
				fatal("%v", err)
			}
			fmt.Fprintf(os.Stderr, "cxlycsb: wrote %s (%d windows)\n", path, len(r.Windows))
		}
	}
	if *reportPath != "" {
		if err := cliutil.WriteFile(*reportPath, func(w io.Writer) error { return report.WriteHTML(w, live) }); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "cxlycsb: wrote %s (%d run(s))\n", *reportPath, len(live))
	}
}

// runClusterMode executes the -nodes > 1 path: a healthy sharded
// cluster run (and, with -faults, a degraded second pass on fresh
// deployments) printing the same YCSB-client-flavoured report plus
// [CLUSTER] lines. Output is byte-identical at any -shards value.
func runClusterMode(config string, mix workload.YCSBMix, opts kvstore.DeployOptions, nodes, shards, ops int, seed int64,
	schedule *fault.Schedule, faultsPath, tracePath, metricsPath string) {
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

	writeObs(tracePath, metricsPath, cc.Tracer, cc.Metrics, "node 0 only")

	// The shard count is an execution detail, not a result: it goes to
	// stderr so stdout is byte-identical at any -shards value.
	fmt.Fprintf(os.Stderr, "cxlycsb: %d nodes on %d shard(s)\n", nodes, res.Shards)
	m := res.Merged
	printResult(config, mix.Name, nodes, m)
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
		printFault(faultsPath, m, dres.Merged)
	}
}

// printResult prints the YCSB-client-flavoured result block shared by
// single-node and cluster runs; a cluster (nodes > 1) adds its size.
func printResult(config, wl string, nodes int, r kvstore.Result) {
	fmt.Printf("[OVERALL], Configuration, %s\n", config)
	fmt.Printf("[OVERALL], Workload, %s\n", wl)
	if nodes > 1 {
		fmt.Printf("[OVERALL], Nodes, %d\n", nodes)
	}
	fmt.Printf("[OVERALL], Throughput(ops/sec), %.1f\n", r.ThroughputOpsPerSec)
	for _, p := range []float64{50, 90, 95, 99, 99.9} {
		fmt.Printf("[READ], %gthPercentileLatency(us), %.1f\n", p, r.ReadLatency.Percentile(p)/1e3)
	}
	fmt.Printf("[READ], AverageLatency(us), %.1f\n", r.ReadLatency.Mean()/1e3)
	fmt.Printf("[CACHE], HitRate, %.4f\n", r.HitRate)
	if r.Migrated > 0 {
		fmt.Printf("[TIERING], MigratedBytes, %d\n", r.Migrated)
	}
}

// printFault prints the degraded pass's [FAULT] lines: its deltas
// against the healthy pass and its retry accounting.
func printFault(schedule string, healthy, degraded kvstore.Result) {
	fmt.Printf("[FAULT], Schedule, %s\n", schedule)
	fmt.Printf("[FAULT], Throughput(ops/sec), %.1f (%+.1f%%)\n",
		degraded.ThroughputOpsPerSec, delta(degraded.ThroughputOpsPerSec, healthy.ThroughputOpsPerSec))
	for _, p := range []float64{50, 99} {
		fmt.Printf("[FAULT], READ %gthPercentileLatency(us), %.1f (%+.1f%%)\n",
			p, degraded.ReadLatency.Percentile(p)/1e3,
			delta(degraded.ReadLatency.Percentile(p), healthy.ReadLatency.Percentile(p)))
	}
	fmt.Printf("[FAULT], Timeouts, %d\n", degraded.Timeouts)
	fmt.Printf("[FAULT], Retries, %d\n", degraded.Retries)
	fmt.Printf("[FAULT], FailedOps, %d\n", degraded.Failed)
}

// writeObs writes the -trace and -metrics files (empty path: skipped);
// detail describes the trace's scope on stderr.
func writeObs(tracePath, metricsPath string, tr *obs.Tracer, reg *obs.Registry, detail string) {
	if tracePath != "" {
		if err := cliutil.WriteFile(tracePath, tr.WriteJSON); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "cxlycsb: wrote %s (%d events, %s)\n", tracePath, tr.Len(), detail)
	}
	if metricsPath != "" {
		if err := cliutil.WriteFile(metricsPath, func(w io.Writer) error { return obs.WriteProm(w, reg.Snapshot()) }); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "cxlycsb: wrote %s\n", metricsPath)
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

// delta is the percent change of degraded vs healthy.
func delta(degraded, healthy float64) float64 {
	if healthy == 0 {
		return 0
	}
	return (degraded/healthy - 1) * 100
}

// runDegraded replays the fault schedule against a fresh deployment of
// the same configuration, loaded with the healthy pass's warm state, with
// its own observability pass (nil: none) so the two passes never share
// state.
func runDegraded(config string, opts kvstore.DeployOptions, warm *kvstore.WarmState, mix workload.YCSBMix, seed int64, ops int,
	s *fault.Schedule, pass *report.Pass) (kvstore.Result, error) {
	d, err := kvstore.Deploy(kvstore.ConfigName(config), opts)
	if err != nil {
		return kvstore.Result{}, err
	}
	d.LoadWarm(warm)
	rc, err := d.RunConfigWithFaults(mix, seed, s)
	if err != nil {
		return kvstore.Result{}, err
	}
	rc.Ops = ops
	if pass != nil {
		rc.Metrics, rc.Tracer, rc.Windows = pass.Metrics, pass.Tracer, pass.Windows
	}
	return kvstore.Run(d.Store, d.Alloc, rc), nil
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
