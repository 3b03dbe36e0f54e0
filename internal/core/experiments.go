package core

import (
	"fmt"
	"slices"
	"sync"

	"cxlsim/internal/analytics"
	"cxlsim/internal/costmodel"
	"cxlsim/internal/elastic"
	"cxlsim/internal/fault"
	"cxlsim/internal/kvstore"
	"cxlsim/internal/llm"
	"cxlsim/internal/memsim"
	"cxlsim/internal/mlc"
	"cxlsim/internal/par"
	"cxlsim/internal/report"
	"cxlsim/internal/topology"
	"cxlsim/internal/vmm"
	"cxlsim/internal/workload"
)

func init() {
	registry["fig3"] = Fig3
	registry["fig4"] = Fig4
	registry["fig5"] = Fig5
	registry["fig7"] = Fig7
	registry["fig8"] = Fig8
	registry["fig10"] = Fig10
	registry["table2"] = Table2
	registry["table3"] = Table3
	registry["sec43"] = Sec43
}

// testbedPaths returns the four §3 measurement routes on a fresh SNC
// testbed.
func testbedPaths() (local, remote, cxl, cxlr *memsim.Path) {
	m := topology.TestbedSNC()
	local = m.PathFrom(0, m.DRAMNodes(0)[0])
	remote = m.PathFrom(1, m.DRAMNodes(0)[0])
	cxl = m.PathFrom(0, m.CXLNodes()[0])
	cxlr = m.PathFrom(1, m.CXLNodes()[0])
	return
}

// Fig3 regenerates the loaded-latency curve summary of Fig. 3: per path
// and read:write mix, the idle latency, peak bandwidth, and knee point.
// The path×mix grid of sweeps runs in parallel; rows assemble serially in
// grid order, so the table matches a serial run byte for byte.
func Fig3(opt Options) (*Report, error) {
	rep := &Report{
		ID:      "fig3",
		Title:   "Loaded latency by path and read:write mix (Fig. 3)",
		Headers: []string{"path", "mix", "idle ns", "peak GB/s", "knee %peak", "sat ns"},
	}
	opts := mlc.DefaultOptions()
	if opt.Quick {
		opts.Steps = 12
	}
	opts.Parallel = opt.Parallel
	local, remote, cxl, cxlr := testbedPaths()
	paths := []*memsim.Path{local, remote, cxl, cxlr}
	mixes := memsim.StandardMixes()
	curves := make([]mlc.Curve, len(paths)*len(mixes))
	par.ForEach(len(curves), opt.Parallel, func(i int) {
		curves[i] = mlc.LoadedLatency(paths[i/len(mixes)], mixes[i%len(mixes)], opts)
	})
	for i, c := range curves {
		last := c.Points[len(c.Points)-1]
		rep.AddRow(paths[i/len(mixes)].Name, mixes[i%len(mixes)].Label(),
			fmt.Sprintf("%.1f", c.IdleLatency()),
			fmt.Sprintf("%.1f", c.PeakBandwidth()),
			fmt.Sprintf("%.0f%%", c.KneeUtilization()*100),
			fmt.Sprintf("%.0f", last.LatencyNs))
	}
	rep.AddNote("anchors: MMEM 97ns/67GB/s, MMEM-r 130ns, CXL 250.42ns/56.7GB/s@2:1, CXL-r 485ns/20.4GB/s (RSF clamp)")
	return rep, nil
}

// Fig4 regenerates the distance comparison at fixed mixes plus the
// random-vs-sequential panels (Fig. 4(g,h)).
func Fig4(opt Options) (*Report, error) {
	rep := &Report{
		ID:      "fig4",
		Title:   "MMEM vs CXL across NUMA/socket distances (Fig. 4)",
		Headers: []string{"mix", "pattern", "path", "idle ns", "peak GB/s"},
	}
	opts := mlc.DefaultOptions()
	if opt.Quick {
		opts.Steps = 12
	}
	opts.Parallel = opt.Parallel
	local, remote, cxl, cxlr := testbedPaths()
	paths := []*memsim.Path{local, remote, cxl, cxlr}
	// Standard mixes for panels (a–f), then the random-pattern panels
	// (g,h) for read-only and write-only. Per-mix sweep families run in
	// parallel; rows assemble serially in mix order.
	mixes := append(memsim.StandardMixes(),
		memsim.ReadOnly.WithPattern(memsim.Random),
		memsim.WriteOnly.WithPattern(memsim.Random))
	families := make([][]mlc.Curve, len(mixes))
	par.ForEach(len(mixes), opt.Parallel, func(i int) {
		families[i] = mlc.SweepPaths(paths, mixes[i], opts)
	})
	for i, mix := range mixes {
		for _, c := range families[i] {
			rep.AddRow(mix.Label(), mix.Pattern.String(), c.PathName,
				fmt.Sprintf("%.1f", c.IdleLatency()),
				fmt.Sprintf("%.1f", c.PeakBandwidth()))
		}
	}
	rep.AddNote("random vs sequential shows no significant disparity (§3.3)")
	return rep, nil
}

// Fig5 regenerates the KeyDB YCSB experiment: throughput per Table-1
// configuration and workload, tail latencies for YCSB-A, and the YCSB-C
// latency CDF summary.
func Fig5(opt Options) (*Report, error) {
	rep := &Report{
		ID:      "fig5",
		Title:   "KeyDB YCSB throughput and latency under Table-1 configurations (Fig. 5)",
		Headers: []string{"config", "workload", "kops/s", "vs MMEM", "p50 µs", "p99 µs", "hit rate"},
	}
	mixes := workload.StandardMixes()
	ops := 40_000
	warmEpochs := 120
	if opt.Quick {
		mixes = mixes[:2]
		ops = 8_000
		warmEpochs = 40
	}
	// Every (config, mix) cell is an independent deployment on its own
	// simulated machine, healthy and — with a fault schedule — again on a
	// fresh machine with the schedule replaying mid-run (reported as
	// extra delta columns). Cells run in parallel, index-aligned, and rows
	// assemble serially so baselines and row order match the serial loop
	// exactly.
	configs := kvstore.Table1Configs()
	grid := len(configs) * len(mixes)
	cells := grid
	if opt.Faults != nil {
		rep.Headers = append(rep.Headers, "faulted kops/s", "Δ%")
		cells *= 2
	}
	results := make([]kvstore.Result, cells)
	deployOpts := kvstore.DeployOptions{SimKeys: 1 << 16}
	runCell := func(j int, warm *kvstore.WarmState) (kvstore.Result, error) {
		conf, mix := configs[j%grid/len(mixes)], mixes[j%len(mixes)]
		var faults *fault.Schedule
		if j >= grid {
			faults = opt.Faults
		}
		d, err := kvstore.Deploy(conf, deployOpts)
		if err != nil {
			return kvstore.Result{}, err
		}
		d.LoadWarm(warm)
		rc, err := d.RunConfigWithFaults(mix, opt.seed(), faults)
		if err != nil {
			return kvstore.Result{}, err
		}
		rc.Ops = ops
		return kvstore.Run(d.Store, d.Alloc, rc), nil
	}
	// Only the Hot-Promote cells warm. Cells whose mixes share a WarmKey
	// warm identically, so each distinct warm-up runs once and every
	// Hot-Promote cell, healthy or faulted, loads its saved state. The
	// warm-ups start first in the same fan-out as the daemon-less cells;
	// the Hot-Promote cells run after it.
	var warmMixes []workload.YCSBMix  // one mix per distinct WarmKey
	warmOf := make([]int, len(mixes)) // mix index → warmMixes index
	for mi, mix := range mixes {
		k := slices.IndexFunc(warmMixes, func(w workload.YCSBMix) bool { return kvstore.WarmKey(w) == kvstore.WarmKey(mix) })
		if k < 0 {
			k = len(warmMixes)
			warmMixes = append(warmMixes, mix)
		}
		warmOf[mi] = k
	}
	var static, tiered []int
	for j := 0; j < cells; j++ {
		if configs[j%grid/len(mixes)] == kvstore.ConfHotPromote {
			tiered = append(tiered, j)
		} else {
			static = append(static, j)
		}
	}
	warm := make([]*kvstore.WarmState, len(warmMixes))
	err := par.ForEachErr(len(warm)+len(static), opt.Parallel, func(k int) error {
		if k >= len(warm) {
			var err error
			results[static[k-len(warm)]], err = runCell(static[k-len(warm)], nil)
			return err
		}
		d, err := kvstore.Deploy(kvstore.ConfHotPromote, deployOpts)
		if err != nil {
			return err
		}
		d.Warm(warmMixes[k], warmEpochs, 100_000, opt.seed())
		warm[k] = d.SaveWarm()
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = par.ForEachErr(len(tiered), opt.Parallel, func(k int) error {
		j := tiered[k]
		var err error
		results[j], err = runCell(j, warm[warmOf[j%len(mixes)]])
		return err
	})
	if err != nil {
		return nil, err
	}
	base := map[string]float64{}
	var timeouts, retries, failed uint64
	for ci, conf := range configs {
		for mi, mix := range mixes {
			i := ci*len(mixes) + mi
			res := results[i]
			if conf == kvstore.ConfMMEM {
				base[mix.Name] = res.ThroughputOpsPerSec
			}
			slow := "1.00x"
			if b := base[mix.Name]; b > 0 {
				slow = fmt.Sprintf("%.2fx", b/res.ThroughputOpsPerSec)
			}
			row := []string{string(conf), mix.Name,
				fmt.Sprintf("%.0f", res.ThroughputOpsPerSec/1e3),
				slow,
				fmt.Sprintf("%.0f", res.Latency.Percentile(50)/1e3),
				fmt.Sprintf("%.0f", res.Latency.Percentile(99)/1e3),
				fmt.Sprintf("%.3f", res.HitRate)}
			if opt.Faults != nil {
				f := results[grid+i]
				row = append(row,
					fmt.Sprintf("%.0f", f.ThroughputOpsPerSec/1e3),
					fmt.Sprintf("%+.1f%%", (f.ThroughputOpsPerSec/res.ThroughputOpsPerSec-1)*100))
				timeouts += f.Timeouts
				retries += f.Retries
				failed += f.Failed
			}
			rep.AddRow(row...)
		}
	}
	rep.AddNote("paper: interleave 1.2–1.5x slower, SSD ≈1.8x, Hot-Promote ≈ MMEM (§4.1.2)")
	if opt.Faults != nil {
		rep.AddNote("fault replay: %d timeouts, %d retries, %d failed ops across the grid — extrapolation beyond the paper's healthy-hardware data", timeouts, retries, failed)
	}
	return rep, nil
}

// Fig7 regenerates the Spark TPC-H experiment: normalized execution time
// and shuffle share per query and cluster configuration.
func Fig7(opt Options) (*Report, error) {
	rep := &Report{
		ID:      "fig7",
		Title:   "Spark TPC-H execution time and shuffle share (Fig. 7)",
		Headers: []string{"config", "query", "exec s", "vs MMEM", "shuffle %", "write %", "read %"},
	}
	queries := analytics.TPCHQueries()
	if opt.Quick {
		queries = queries[:2]
	}
	// Engines are cheap to build and Run is read-only over engine state,
	// so every (config, query) cell runs in parallel against a shared
	// per-config engine; rows assemble serially in the original order.
	cfgs := analytics.Fig7Configs()
	engines := make([]*analytics.Engine, len(cfgs))
	for i, cfg := range cfgs {
		eng, err := analytics.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		engines[i] = eng
	}
	results := make([]analytics.QueryResult, len(cfgs)*len(queries))
	par.ForEach(len(results), opt.Parallel, func(i int) {
		results[i] = engines[i/len(queries)].Run(queries[i%len(queries)])
	})
	base := map[string]float64{}
	for ci, cfg := range cfgs {
		for qi, q := range queries {
			r := results[ci*len(queries)+qi]
			if cfg.Name == "MMEM" {
				base[q.Name] = r.ExecTimeNs
			}
			norm := "1.00x"
			if b := base[q.Name]; b > 0 {
				norm = fmt.Sprintf("%.2fx", r.ExecTimeNs/b)
			}
			rep.AddRow(cfg.Name, q.Name,
				fmt.Sprintf("%.1f", r.ExecTimeNs/1e9),
				norm,
				fmt.Sprintf("%.0f%%", r.ShufflePct()*100),
				fmt.Sprintf("%.0f%%", r.ShuffleWrite*100),
				fmt.Sprintf("%.0f%%", r.ShuffleRead*100))
		}
	}
	rep.AddNote("paper: interleave 1.4–9.8x vs MMEM, spill worse still, Hot-Promote >1.34x (§4.2.2)")
	return rep, nil
}

// Fig8 regenerates the CXL-only KeyDB comparison: read-latency CDF points
// and throughput for a 100 GB YCSB-C workload bound to MMEM vs CXL.
func Fig8(opt Options) (*Report, error) {
	rep := &Report{
		ID:      "fig8",
		Title:   "KeyDB YCSB-C bound to CXL vs MMEM (Fig. 8)",
		Headers: []string{"binding", "kops/s", "p50 µs", "p90 µs", "p99 µs"},
	}
	ops := 40_000
	if opt.Quick {
		ops = 8_000
	}
	run := func(label string, pick func(*topology.Machine) []*topology.Node, faults *fault.Schedule) (*kvstore.Result, *report.Run, error) {
		m := topology.Testbed()
		alloc := vmm.NewAllocator(m)
		st, err := kvstore.NewStore(m, alloc, kvstore.StoreConfig{
			WorkingSetBytes: 100 << 30,
			SimKeys:         1 << 16,
			MaxMemoryFrac:   1,
			Policy:          vmm.Bind{Nodes: pick(m)},
		})
		if err != nil {
			return nil, nil, err
		}
		rc := kvstore.RunConfig{Mix: workload.YCSBC, Ops: ops, Seed: opt.seed()}
		schedule := ""
		if faults != nil {
			if rc.Faults, err = fault.NewInjector(faults, m); err != nil {
				return nil, nil, err
			}
			schedule = "degraded"
		}
		// Windowed cells get a private pass so parallel cells never share
		// metric state.
		var pass *report.Pass
		if opt.WindowNs > 0 {
			pass = report.NewPass(opt.WindowNs, opt.SLO)
			rc.Metrics, rc.Tracer, rc.Windows = pass.Metrics, pass.Tracer, pass.Windows
		}
		res := kvstore.Run(st, alloc, rc)
		res.Config = label
		return &res, pass.Run(label, label, rc.Mix.Name, schedule), nil
	}
	// The two bindings are independent deployments; run them in parallel
	// (healthy pair first, then the degraded pair when a schedule is set).
	bindings := []struct {
		label string
		pick  func(*topology.Machine) []*topology.Node
	}{
		{"MMEM", func(m *topology.Machine) []*topology.Node { return m.DRAMNodes(0) }},
		{"CXL", func(m *topology.Machine) []*topology.Node { return m.CXLNodes() }},
	}
	cells := len(bindings)
	if opt.Faults != nil {
		rep.Headers = append(rep.Headers, "faulted kops/s", "Δ%")
		cells *= 2
	}
	runs := make([]*kvstore.Result, cells)
	winRuns := make([]*report.Run, cells)
	err := par.ForEachErr(cells, opt.Parallel, func(i int) error {
		var faults *fault.Schedule
		label := bindings[i%len(bindings)].label
		if i >= len(bindings) {
			faults = opt.Faults
			label += "-degraded"
		}
		b := bindings[i%len(bindings)]
		r, rr, err := run(label, b.pick, faults)
		runs[i], winRuns[i] = r, rr
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, rr := range winRuns {
		if rr != nil {
			rep.Runs = append(rep.Runs, rr)
		}
	}
	mmem, cxl := runs[0], runs[1]
	for ri, r := range []*kvstore.Result{mmem, cxl} {
		row := []string{r.Config,
			fmt.Sprintf("%.0f", r.ThroughputOpsPerSec/1e3),
			fmt.Sprintf("%.1f", r.ReadLatency.Percentile(50)/1e3),
			fmt.Sprintf("%.1f", r.ReadLatency.Percentile(90)/1e3),
			fmt.Sprintf("%.1f", r.ReadLatency.Percentile(99)/1e3)}
		if opt.Faults != nil {
			f := runs[len(bindings)+ri]
			row = append(row,
				fmt.Sprintf("%.0f", f.ThroughputOpsPerSec/1e3),
				fmt.Sprintf("%+.1f%%", (f.ThroughputOpsPerSec/r.ThroughputOpsPerSec-1)*100))
		}
		rep.AddRow(row...)
	}
	drop := 1 - cxl.ThroughputOpsPerSec/mmem.ThroughputOpsPerSec
	pen := cxl.ReadLatency.Percentile(50)/mmem.ReadLatency.Percentile(50) - 1
	rep.AddNote("throughput drop %.1f%% (paper ≈12.5%%); p50 read penalty %.1f%% (paper 9–27%%)", drop*100, pen*100)
	if opt.Faults != nil {
		fm, fc := runs[len(bindings)], runs[len(bindings)+1]
		rep.AddNote("fault replay: %d timeouts, %d retries, %d failed ops — extrapolation beyond the paper's healthy-hardware data",
			fm.Timeouts+fc.Timeouts, fm.Retries+fc.Retries, fm.Failed+fc.Failed)
	}
	return rep, nil
}

// Fig10 regenerates the LLM inference experiment: serving rate vs thread
// count per placement policy, per-backend bandwidth scaling, and the KV
// cache bandwidth curve.
func Fig10(opt Options) (*Report, error) {
	rep := &Report{
		ID:      "fig10",
		Title:   "CPU LLM inference (Fig. 10)",
		Headers: []string{"panel", "policy", "x", "value"},
	}
	c := fig10Cluster()
	maxBackends := 6
	if opt.Quick {
		maxBackends = 5
	}
	// The policy × backend-count grid solves in parallel; series points
	// are index-aligned per policy, so rows emit in sweep order.
	series := c.Fig10a(maxBackends, opt.Parallel)
	for _, p := range llm.Fig10Policies() {
		for _, pt := range series[p.Name] {
			rep.AddRow("(a) serving rate", pt.Policy,
				fmt.Sprintf("%d threads", pt.Threads),
				fmt.Sprintf("%.2f tok/s (bw %.1f GB/s, lat %.0f ns)", pt.TokensPerSec, pt.BandwidthGB, pt.LatencyNs))
		}
	}
	for _, th := range []int{4, 8, 12, 16, 20, 24, 32} {
		rep.AddRow("(b) backend bw", "MMEM", fmt.Sprintf("%d threads", th),
			fmt.Sprintf("%.1f GB/s", c.BackendBandwidth(th)))
	}
	for _, kv := range []float64{0, 1e9, 2e9, 4e9, 8e9, 16e9, 32e9} {
		rep.AddRow("(c) kv cache bw", "MMEM", fmt.Sprintf("%.0f GB", kv/1e9),
			fmt.Sprintf("%.1f GB/s", c.KVCacheBandwidth(kv)))
	}
	rep.AddNote("paper: MMEM saturates at 48 threads; 3:1 +95%% at 60 threads; 1:3 beats MMEM ≈14%% beyond 64 threads (§5.2)")
	return rep, nil
}

// fig10Cluster shares one serving cluster across fig10 runs: the §5.1
// platform is fixed, a Cluster is read-only after construction, and the
// solvers are re-entrant, so repeated or concurrent runs (the parallel
// experiment runner, benchmark loops) need not rebuild the whole testbed
// machine each time. Experiments that perturb devices (sensitivity,
// failure injection) build their own machines and are unaffected.
var fig10Cluster = sync.OnceValue(llm.NewCluster)

// Table2 renders the Intel processor series table with the provisioning
// gap analysis.
func Table2(Options) (*Report, error) {
	rep := &Report{
		ID:      "table2",
		Title:   "Intel processor series and the 1:4 memory requirement (Table 2)",
		Headers: []string{"year", "cpu", "max vCPU", "channels", "max mem TB", "required TB", "gap TB", "sellable"},
	}
	for _, p := range elastic.Table2() {
		rep.AddRow(p.Year, p.CPU,
			fmt.Sprintf("%d", p.MaxVCPU), p.Channels,
			fmt.Sprintf("%.0f", p.MaxMemoryTB),
			fmt.Sprintf("%.3g", p.PublishedRequiredTB),
			fmt.Sprintf("%.2f", p.MemoryGapTB()),
			fmt.Sprintf("%.0f%%", p.SellableVCPUFrac()*100))
	}
	return rep, nil
}

// Table3 renders the Abstract Cost Model parameters and the §6 worked
// example.
func Table3(Options) (*Report, error) {
	rep := &Report{
		ID:      "table3",
		Title:   "Abstract Cost Model (Table 3, §6)",
		Headers: []string{"Rd", "Rc", "C", "Rt", "N_cxl/N_base", "server reduction", "TCO saving"},
	}
	p := costmodel.PaperExample()
	ratio, err := p.ServerRatio()
	if err != nil {
		return nil, err
	}
	saving, err := p.TCOSaving()
	if err != nil {
		return nil, err
	}
	rep.AddRow(
		fmt.Sprintf("%.0f", p.Rd), fmt.Sprintf("%.0f", p.Rc),
		fmt.Sprintf("%.0f", p.C), fmt.Sprintf("%.1f", p.Rt),
		fmt.Sprintf("%.2f%%", ratio*100),
		fmt.Sprintf("%.2f%%", (1-ratio)*100),
		fmt.Sprintf("%.2f%%", saving*100))
	rep.AddNote("paper: 67.29%% server ratio, 25.98%% TCO saving")
	return rep, nil
}

// Sec43 renders the elastic-compute revenue analysis.
func Sec43(Options) (*Report, error) {
	rep := &Report{
		ID:      "sec43",
		Title:   "Spare-core revenue recovery with CXL (§4.3)",
		Headers: []string{"GiB/vCPU", "sellable", "stranded", "CXL discount", "recovered revenue"},
	}
	m := elastic.PaperExample()
	rep.AddRow(
		fmt.Sprintf("%.0f", m.GiBPerVCPU),
		fmt.Sprintf("%.0f%%", m.SellableFrac()*100),
		fmt.Sprintf("%.0f%%", m.StrandedFrac()*100),
		fmt.Sprintf("%.0f%%", m.CXLDiscount*100),
		fmt.Sprintf("%.2f%%", m.RecoveredRevenueFrac()*100))
	rep.AddNote("paper: ≈27%% improvement in total revenue; 12.5%% CXL penalty covered by the 20%% discount")
	return rep, nil
}
