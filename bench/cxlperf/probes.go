package main

import (
	"runtime/metrics"
	"sync/atomic"
	"time"

	"cxlsim/internal/kvstore"
	"cxlsim/internal/memsim"
	"cxlsim/internal/sim"
	"cxlsim/internal/tiering"
	"cxlsim/internal/vmm"
	"cxlsim/internal/workload"
)

// goCounters reads the Go runtime's own accounting of this process.
type goCounters struct{ gcCPU, allocBytes, gcCycles float64 }

func readGo() goCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return goCounters{s[0].Value.Float64(), float64(s[1].Value.Uint64()), float64(s[2].Value.Uint64())}
}

// since adds the go.* deltas from g to now.
func (g goCounters) since(s samples) {
	now := readGo()
	s.add("go.gc_cpu_s", now.gcCPU-g.gcCPU)
	s.add("go.alloc_bytes", now.allocBytes-g.allocBytes)
	s.add("go.gc_cycles", now.gcCycles-g.gcCycles)
}

// memsimProbe counts solver passes through memsim's public solve
// observer and reads the process-wide solve cache counters.
type memsimProbe struct {
	open, closed atomic.Int64
	hits, misses uint64
}

// probeMemsim installs the solve observer; stop removes it and records
// the memsim.* metrics.
func probeMemsim() *memsimProbe {
	p := &memsimProbe{}
	p.hits, p.misses, _ = memsim.SolveCacheStats()
	memsim.SetSolveObserver(func(kind string, _ int, _ memsim.Utilization) {
		if kind == "open" {
			p.open.Add(1)
		} else {
			p.closed.Add(1)
		}
	})
	return p
}

func (p *memsimProbe) stop(s samples) {
	memsim.SetSolveObserver(nil)
	hits, misses, _ := memsim.SolveCacheStats()
	h, m := float64(hits-p.hits), float64(misses-p.misses)
	s.add("memsim.solves_open", float64(p.open.Load()))
	s.add("memsim.solves_closed", float64(p.closed.Load()))
	s.add("memsim.cache_hits", h)
	s.add("memsim.cache_misses", m)
	s.ratio("memsim.cache_hit_ratio", h, h+m)
}

// timedSource times every Next of the op stream kvstore.Run consumes.
type timedSource struct {
	src  kvstore.OpSource
	next *agg
}

func (t timedSource) Next() workload.Op {
	t0 := time.Now()
	op := t.src.Next()
	t.next.since(t0)
	return op
}

// tickStats aggregates tiering daemon ticks.
type tickStats struct {
	warm, run agg
	migrated  atomic.Uint64
}

// timedDaemon times a deployment's tiering daemon. warm says whether
// the deployment is inside Deployment.Warm, so warm-phase ticks can be
// told from run-phase ones.
type timedDaemon struct {
	tiering.Daemon
	stats *tickStats
	warm  bool
}

func (d *timedDaemon) Tick(now sim.Time, space *vmm.Space, alloc *vmm.Allocator) tiering.Report {
	t0 := time.Now()
	rep := d.Daemon.Tick(now, space, alloc)
	if d.warm {
		d.stats.warm.since(t0)
	} else {
		d.stats.run.since(t0)
	}
	d.stats.migrated.Add(rep.TotalBytes())
	return rep
}
