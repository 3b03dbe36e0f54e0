package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"cxlsim/internal/core"
	"cxlsim/internal/kvstore"
	"cxlsim/internal/obs"
	"cxlsim/internal/par"
	"cxlsim/internal/workload"
)

// setupSpawns is how many bare process starts paper-figures times on top
// of the one before each pass, so set-up time is a median of several.
const setupSpawns = 5

// figuresChild runs every experiment once, exactly as `cxlbench all`
// does, and digests each table.
func figuresChild(job childJob, out *childOut) error {
	opt := core.Options{Seed: job.Seed, Quick: job.Quick, Parallel: runtime.GOMAXPROCS(0)}
	ids := core.Experiments()
	reps := make([]*core.Report, len(ids))
	t0 := time.Now()
	for i, id := range ids {
		rep, err := core.Run(id, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		reps[i] = rep
	}
	out.Samples.add("wall_s", time.Since(t0).Seconds())
	d := map[string]string{}
	for i, id := range ids {
		d[id] = tableDigest(reps[i])
	}
	out.Digests = append(out.Digests, d)
	return nil
}

// figuresTimed runs full passes, each in a fresh process, until the
// measuring time is used up.
func figuresTimed(e *env, s samples) error {
	for i := 0; i < setupSpawns; i++ {
		_, setup, err := spawn(childJob{Kind: "ready"})
		if err != nil {
			return err
		}
		s.add("setup_s", setup)
	}
	chk := e.digestCheck("paper-figures")
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < e.seconds; rep++ {
		out, setup, err := spawn(childJob{Kind: "paper-figures", Seed: e.seed, Quick: e.quick})
		if err != nil {
			return err
		}
		s.add("setup_s", setup)
		s.add("peak_rss_mb", out.Samples["peak_rss_mb"]...)
		s.add("wall_s", out.Samples["wall_s"]...)
		for _, d := range out.Digests {
			chk.check(d)
		}
	}
	return nil
}

// figuresTraced runs every experiment in this process with a span per
// core.Run, then replays Fig. 5's grid through the kvstore layers with
// every layer boundary timed. The replay must reproduce Fig. 5's rows.
func figuresTraced(e *env, s samples) error {
	root := e.tr.start("paper-figures", "", 0)
	defer e.tr.end(root)
	opt := core.Options{Seed: e.seed, Quick: e.quick, Parallel: runtime.GOMAXPROCS(0)}
	mp := probeMemsim()
	g := readGo()
	digests := map[string]string{}
	var fig5 *core.Report
	for _, id := range core.Experiments() {
		sp := e.tr.start("core.Run", id, root)
		t0 := time.Now()
		rep, err := core.Run(id, opt)
		d := time.Since(t0).Seconds()
		e.tr.end(sp)
		if err != nil {
			mp.stop(samples{})
			return fmt.Errorf("%s: %w", id, err)
		}
		s.add("core."+id+".wall_s", d)
		digests[id] = tableDigest(rep)
		if id == "fig5" {
			fig5 = rep
		}
	}
	mp.stop(s)
	g.since(s)
	e.digestCheck("paper-figures").check(digests)
	if fig5 == nil {
		return fmt.Errorf("no fig5 experiment to replay")
	}

	// Fig. 5 once more, untraced in this now warm process: the baseline
	// the replay's tracing overhead is measured against.
	t0 := time.Now()
	if _, err := core.Run("fig5", opt); err != nil {
		return err
	}
	fig5Wall := time.Since(t0).Seconds()
	rows, wall, err := replayFig5(e, root, s)
	if err != nil {
		return err
	}
	// Replayed columns: config, workload, kops/s, p50, p99, hit rate.
	cols := []int{0, 1, 2, 4, 5, 6}
	for i, row := range rows {
		ok := i < len(fig5.Rows)
		for j, c := range cols {
			ok = ok && c < len(fig5.Rows[i]) && fig5.Rows[i][c] == row[j]
		}
		e.tally.check(ok)
		if !ok {
			fmt.Fprintf(e.out, "paper-figures replay row %d %v does not match Fig. 5\n", i, row)
		}
	}
	e.tally.check(len(rows) == len(fig5.Rows))
	s.add("trace.overhead_ratio", wall/fig5Wall)
	return nil
}

// replayFig5 re-runs Fig. 5's grid with the constants, seed and fan-out
// core.Fig5 uses, calling kvstore.Deploy, Deployment.Warm and kvstore.Run
// itself so each can be timed, with the tiering daemon and op source
// wrapped. It returns the rows' replayed columns and its wall time.
func replayFig5(e *env, parent int, s samples) ([][]string, float64, error) {
	mixes := workload.StandardMixes()
	ops, warmEpochs := 40_000, 120
	if e.quick {
		mixes = mixes[:2]
		ops, warmEpochs = 8_000, 40
	}
	configs := kvstore.Table1Configs()
	rows := make([][]string, len(configs)*len(mixes))
	errs := make([]error, len(rows))
	rs := &runStats{}
	sp := e.tr.start("fig5.replay", "", parent)
	t0 := time.Now()
	par.ForEach(len(rows), runtime.GOMAXPROCS(0), func(i int) {
		conf, mix := configs[i/len(mixes)], mixes[i%len(mixes)]
		var res kvstore.Result
		res, _, _, errs[i] = runCell(e.tr, sp, cell{conf, mix, 1 << 16, warmEpochs, ops}, e.seed, rs)
		rows[i] = []string{string(conf), mix.Name,
			fmt.Sprintf("%.0f", res.ThroughputOpsPerSec/1e3),
			fmt.Sprintf("%.0f", res.Latency.Percentile(50)/1e3),
			fmt.Sprintf("%.0f", res.Latency.Percentile(99)/1e3),
			fmt.Sprintf("%.3f", res.HitRate)}
	})
	wall := time.Since(t0).Seconds()
	e.tr.end(sp)
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	rs.report(s, e.tr)
	return rows, wall, nil
}

// cell is one deployment × YCSB mix.
type cell struct {
	conf       kvstore.ConfigName
	mix        workload.YCSBMix
	simKeys    int
	warmEpochs int // Deployment.Warm epochs; 0 skips Warm
	ops        int // measured operations
}

// runCell deploys and runs one cell as core.Fig5 and cxlycsb do and
// times the kvstore.Deploy and kvstore.Run calls. With rs set (a traced
// pass) it also wraps the tiering daemon and op source and counts kernel
// events into rs; the simulated results are the same either way.
func runCell(tr *tracer, parent int, c cell, seed int64, rs *runStats) (res kvstore.Result, deploy, run float64, err error) {
	cs := tr.start("cell", string(c.conf)+"/"+c.mix.Name, parent)
	defer tr.end(cs)
	sp := tr.start("kvstore.Deploy", "", cs)
	t0 := time.Now()
	d, err := kvstore.Deploy(c.conf, kvstore.DeployOptions{SimKeys: c.simKeys})
	deploy = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return res, 0, 0, err
	}
	var td *timedDaemon
	if rs != nil && d.Daemon != nil {
		td = &timedDaemon{Daemon: d.Daemon, stats: &rs.ticks, warm: true}
		d.Daemon = td
	}
	if c.warmEpochs > 0 {
		sp = tr.start("Deployment.Warm", "", cs)
		d.Warm(c.mix, c.warmEpochs, 100_000, seed)
		tr.end(sp)
	}
	if td != nil {
		td.warm = false
	}
	rc := d.RunConfigFor(c.mix, seed)
	rc.Ops = c.ops
	if rs != nil {
		rc.Metrics = obs.NewRegistry()
		rc.Source = timedSource{src: workload.NewYCSB(c.mix, uint64(d.Store.SimKeys()), seed), next: &rs.next}
	}
	sp = tr.start("kvstore.Run", "", cs)
	t0 = time.Now()
	res = kvstore.Run(d.Store, d.Alloc, rc)
	run = time.Since(t0).Seconds()
	tr.end(sp)
	if rs != nil {
		rs.add(rc, res, d.Store)
	}
	return res, deploy, run, nil
}

// runStats sums what the kvstore.Run calls of one traced pass report.
type runStats struct {
	ticks tickStats
	next  agg

	mu                                       sync.Mutex
	fired, scheduled, canceled, hits, misses float64
	virtualNs, ops                           float64
}

func (r *runStats) add(rc kvstore.RunConfig, res kvstore.Result, st *kvstore.Store) {
	hits, misses := st.CacheCounts()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fired += rc.Metrics.Counter(obs.MetricSimFired, "").Value()
	r.scheduled += rc.Metrics.Counter(obs.MetricSimScheduled, "").Value()
	r.canceled += rc.Metrics.Counter(obs.MetricSimCanceled, "").Value()
	r.hits += float64(hits)
	r.misses += float64(misses)
	r.ops += float64(rc.Ops)
	// Simulated time of the measured phase.
	r.virtualNs += float64(rc.Ops) / res.ThroughputOpsPerSec * 1e9
}

// report records the kvstore, tiering, workload and sim metrics, taking
// layer times from the pass's spans.
func (r *runStats) report(s samples, tr *tracer) {
	run, warm := tr.total("kvstore.Run"), tr.total("Deployment.Warm")
	s.add("kvstore.deploy_s", tr.total("kvstore.Deploy"))
	s.add("kvstore.run_s", run)
	if warm > 0 {
		s.add("kvstore.warm_s", warm)
		s.add("kvstore.warm_heat_s", warm-r.ticks.warm.seconds())
	}
	s.ratio("kvstore.hit_ratio", r.hits, r.hits+r.misses)
	s.add("kvstore.virtual_ns_total", r.virtualNs)
	s.ratio("kvstore.sim_ops_per_s", r.ops, run)
	s.add("tiering.tick_s", r.ticks.warm.seconds()+r.ticks.run.seconds())
	s.add("tiering.ticks", float64(r.ticks.warm.n.Load()+r.ticks.run.n.Load()))
	s.add("tiering.migrated_bytes", float64(r.ticks.migrated.Load()))
	r.next.perCall(s, "workload.next_ns_per_op")
	s.add("sim.events_fired", r.fired)
	s.add("sim.events_scheduled", r.scheduled)
	s.add("sim.events_canceled", r.canceled)
	s.ratio("sim.host_ns_per_event", run*1e9, r.fired)
}

// ycsbCells are the ycsb-static grid: two daemon-less deployments at the
// default 1<<20 simulated keys, update-heavy and read-only. Tiny mode
// runs 2k operations on 1<<16 keys.
func ycsbCells(quick bool) []cell {
	ops, keys := 200_000, 1<<20
	if quick {
		ops, keys = 2_000, 1<<16
	}
	var cells []cell
	for _, conf := range []kvstore.ConfigName{kvstore.ConfInter11, kvstore.ConfMMEMSSD04} {
		for _, mix := range []workload.YCSBMix{workload.YCSBA, workload.YCSBC} {
			cells = append(cells, cell{conf: conf, mix: mix, simKeys: keys, ops: ops})
		}
	}
	return cells
}

// ycsbRep runs the grid once, serially. run is the time inside
// kvstore.Run and setup the time inside kvstore.Deploy. Set-up is taken
// per repetition because the two deployments differ in set-up cost: the
// median of single deploys would fall between the two.
func ycsbRep(tr *tracer, parent int, quick bool, seed int64, rs *runStats) (run, setup float64, digests map[string]string, err error) {
	digests = map[string]string{}
	for _, c := range ycsbCells(quick) {
		res, deploy, r, err := runCell(tr, parent, c, seed, rs)
		if err != nil {
			return 0, 0, nil, err
		}
		run += r
		setup += deploy
		digests[string(c.conf)+"/"+c.mix.Name] = resultDigest(res)
	}
	return run, setup, digests, nil
}

// ycsbChild runs one unmeasured repetition, then repetitions until the
// measuring time is used up, all in one process.
func ycsbChild(job childJob, out *childOut) error {
	if _, _, _, err := ycsbRep(nil, 0, job.Quick, job.Seed, nil); err != nil {
		return err
	}
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start).Seconds() < job.Seconds; rep++ {
		run, setup, digests, err := ycsbRep(nil, 0, job.Quick, job.Seed, nil)
		if err != nil {
			return err
		}
		out.Samples.add("wall_s", run)
		out.Samples.add("setup_s", setup)
		out.Digests = append(out.Digests, digests)
	}
	return nil
}

func ycsbTimed(e *env, s samples) error {
	out, _, err := spawn(childJob{Kind: "ycsb-static", Seed: e.seed, Quick: e.quick, Seconds: e.seconds.Seconds()})
	if err != nil {
		return err
	}
	for _, name := range []string{"wall_s", "setup_s", "peak_rss_mb"} {
		s.add(name, out.Samples[name]...)
	}
	chk := e.digestCheck("ycsb-static")
	for _, d := range out.Digests {
		chk.check(d)
	}
	return nil
}

// ycsbTraced runs the grid three times in this process: once to warm up,
// once untraced as the overhead baseline, and once traced.
func ycsbTraced(e *env, s samples) error {
	var base float64
	for i := 0; i < 2; i++ {
		run, _, _, err := ycsbRep(nil, 0, e.quick, e.seed, nil)
		if err != nil {
			return err
		}
		base = run
	}
	root := e.tr.start("ycsb-static", "", 0)
	rs := &runStats{}
	mp := probeMemsim()
	g := readGo()
	run, _, digests, err := ycsbRep(e.tr, root, e.quick, e.seed, rs)
	mp.stop(s)
	g.since(s)
	e.tr.end(root)
	if err != nil {
		return err
	}
	e.digestCheck("ycsb-static").check(digests)
	rs.report(s, e.tr)
	s.add("trace.overhead_ratio", run/base)
	return nil
}
