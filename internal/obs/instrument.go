package obs

import (
	"cxlsim/internal/memsim"
	"cxlsim/internal/sim"
	"cxlsim/internal/tiering"
	"cxlsim/internal/vmm"
)

// Canonical metric family names shared across subsystems, so every
// exporter and consumer (dashboards, reports, tests) agrees on spelling.
const (
	MetricSimScheduled  = "sim_events_scheduled_total"
	MetricSimFired      = "sim_events_fired_total"
	MetricSimCanceled   = "sim_events_canceled_total"
	MetricSimQueueDepth = "sim_queue_depth"

	MetricSolves            = "memsim_solves_total"
	MetricUtilization       = "memsim_resource_utilization"
	MetricBandwidth         = "memsim_resource_bandwidth_gbps"
	MetricSolveCacheHits    = "memsim_solve_cache_hits_total"
	MetricSolveCacheMisses  = "memsim_solve_cache_misses_total"
	MetricSolveCacheEntries = "memsim_solve_cache_entries"

	MetricTierPromotedPages = "tiering_promoted_pages_total"
	MetricTierDemotedPages  = "tiering_demoted_pages_total"
	MetricTierMigratedBytes = "tiering_migrated_bytes_total"
	MetricTierThreshold     = "tiering_promote_threshold"
	MetricTierDegradedNodes = "tiering_degraded_nodes"

	MetricFaultInjected = "fault_injected_total"
	MetricFaultCleared  = "fault_cleared_total"
	MetricFaultActive   = "fault_active"

	MetricKVTimeouts = "kvstore_timeouts_total"
	MetricKVRetries  = "kvstore_retries_total"
	MetricKVFailed   = "kvstore_failed_ops_total"
	MetricKVBackoff  = "kvstore_retry_backoff_ns"

	// Durable spill tier (internal/spill) I/O and recovery.
	MetricSpillRecordsWritten      = "spill_records_written_total"
	MetricSpillBytesWritten        = "spill_bytes_written_total"
	MetricSpillReads               = "spill_reads_total"
	MetricSpillFsyncs              = "spill_fsyncs_total"
	MetricSpillLiveKeys            = "spill_live_keys"
	MetricSpillSegments            = "spill_segments"
	MetricSpillRecoveryScanned     = "spill_recovery_records_scanned_total"
	MetricSpillRecoveryQuarantined = "spill_recovery_records_quarantined_total"
	MetricSpillRecoveryTornBytes   = "spill_recovery_torn_bytes_total"
	MetricSpillRecoveryNs          = "spill_recovery_duration_ns"
	// Durable-mode kvstore counters: writes shed during a spill-tier
	// brownout and the catch-up re-persists when it heals.
	MetricSpillShedWrites    = "spill_shed_writes_total"
	MetricSpillCatchupWrites = "spill_catchup_writes_total"
	MetricSpillReadMismatch  = "spill_read_mismatch_total"

	// RESP wire-protocol front end (internal/resp): per-command traffic
	// and connection lifecycle, plus the kvstore backend's simulated
	// service-time histograms and virtual clock.
	MetricRESPCommands       = "resp_commands_total"
	MetricRESPErrors         = "resp_errors_total"
	MetricRESPConnsOpen      = "resp_connections_open"
	MetricRESPConnsTotal     = "resp_connections_total"
	MetricRESPConnsRejected  = "resp_connections_rejected_total"
	MetricRESPProtocolErrors = "resp_protocol_errors_total"
	MetricRESPServiceNs      = "resp_command_service_ns"
	MetricRESPVirtualTimeNs  = "resp_virtual_time_ns"
	MetricRESPKeys           = "resp_keys"
	MetricRESPShedWrites     = "resp_shed_writes_total"
)

// KernelObserver implements sim.Observer: it counts event lifecycle
// transitions into a registry and samples queue depth into a tracer
// counter track every kernelSampleEvery fired events. Use one observer
// per engine (the sampling stride is per-observer state).
type KernelObserver struct {
	scheduled, fired, canceled *Counter
	queueDepth                 *Gauge
	tracer                     *Tracer
	sinceSample                int
}

// kernelSampleEvery is the trace's queue-depth sampling stride, in fired
// events.
const kernelSampleEvery = 256

// NewKernelObserver wires an observer to reg and tr; either may be nil.
func NewKernelObserver(reg *Registry, tr *Tracer) *KernelObserver {
	o := &KernelObserver{tracer: tr}
	if reg != nil {
		o.scheduled = reg.Counter(MetricSimScheduled, "events enqueued on the sim kernel")
		o.fired = reg.Counter(MetricSimFired, "events executed by the sim kernel")
		o.canceled = reg.Counter(MetricSimCanceled, "events descheduled before firing")
		o.queueDepth = reg.Gauge(MetricSimQueueDepth, "pending events in the sim kernel queue")
	}
	return o
}

// EventScheduled implements sim.Observer.
func (o *KernelObserver) EventScheduled(at sim.Time, pending int) {
	if o.scheduled != nil {
		o.scheduled.Inc()
		o.queueDepth.Set(float64(pending))
	}
}

// EventFired implements sim.Observer.
func (o *KernelObserver) EventFired(now sim.Time, pending int) {
	if o.fired != nil {
		o.fired.Inc()
		o.queueDepth.Set(float64(pending))
	}
	o.sinceSample++
	if o.sinceSample >= kernelSampleEvery {
		o.sinceSample = 0
		o.tracer.Counter("sim", "queue_depth", now, map[string]float64{"pending": float64(pending)})
	}
}

// EventCanceled implements sim.Observer.
func (o *KernelObserver) EventCanceled(now sim.Time, pending int) {
	if o.canceled != nil {
		o.canceled.Inc()
		o.queueDepth.Set(float64(pending))
	}
}

// InstrumentMemsim installs a process-wide memsim solve observer that
// counts solver passes and publishes per-resource utilization and
// estimated bandwidth gauge families into reg. Pass a nil registry to
// uninstall.
//
// The hook is global (the solvers are package-level functions); commands
// and servers install it once at startup. Installing it twice replaces
// the previous registry.
func InstrumentMemsim(reg *Registry) {
	if reg == nil {
		memsim.SetSolveObserver(nil)
		return
	}
	solves := reg.CounterVec(MetricSolves, "memory-flow solver passes", "kind")
	util := reg.GaugeVec(MetricUtilization, "per-resource capacity fraction after the last solve", "resource")
	bw := reg.GaugeVec(MetricBandwidth, "per-resource estimated delivered bandwidth, GB/s", "resource")
	memsim.SetSolveObserver(func(kind string, flows int, u memsim.Utilization) {
		solves.With(kind).Inc()
		for r, frac := range u {
			util.With(r.Name).Set(frac)
			bw.With(r.Name).Set(frac * r.Peak.Max())
		}
	})
}

// InstrumentSolveCache publishes the process-wide memsim solve cache's
// hit, miss and entry counts into reg, read live from
// memsim.SolveCacheStats.
func InstrumentSolveCache(reg *Registry) {
	reg.CounterFunc(MetricSolveCacheHits, "memsim solves answered from the solve cache", func() float64 {
		hits, _, _ := memsim.SolveCacheStats()
		return float64(hits)
	})
	reg.CounterFunc(MetricSolveCacheMisses, "memsim solves computed and added to the solve cache", func() float64 {
		_, misses, _ := memsim.SolveCacheStats()
		return float64(misses)
	})
	reg.GaugeFunc(MetricSolveCacheEntries, "solutions held in the memsim solve cache", func() float64 {
		_, _, entries := memsim.SolveCacheStats()
		return float64(entries)
	})
}

// instrumentedDaemon decorates a tiering daemon with per-tick metrics
// and trace spans. Every Daemon method but Tick is promoted from the
// wrapped daemon, so instrumentation never hides its health source.
type instrumentedDaemon struct {
	tiering.Daemon
	promoted *Counter
	demoted  *Counter
	migrated *Counter
	thresh   *Gauge
	tracer   *Tracer

	prevTick sim.Time
	ticked   bool
}

// InstrumentDaemon wraps a tiering daemon so every tick records
// promotion/demotion counters labeled by policy name into reg and a span
// (covering the epoch since the previous tick) on the tracer's "tiering"
// track. Either sink may be nil. A nil daemon passes through unchanged.
func InstrumentDaemon(d tiering.Daemon, reg *Registry, tr *Tracer) tiering.Daemon {
	if d == nil || (reg == nil && tr == nil) {
		return d
	}
	id := &instrumentedDaemon{Daemon: d, tracer: tr}
	if reg != nil {
		name := d.Name()
		id.promoted = reg.CounterVec(MetricTierPromotedPages, "pages promoted to the fast tier", "policy").With(name)
		id.demoted = reg.CounterVec(MetricTierDemotedPages, "pages demoted to the slow tier", "policy").With(name)
		id.migrated = reg.CounterVec(MetricTierMigratedBytes, "total page-migration traffic, bytes", "policy").With(name)
		id.thresh = reg.GaugeVec(MetricTierThreshold, "current hot-page promotion threshold (accesses/epoch)", "policy").With(name)
	}
	return id
}

// Tick implements tiering.Daemon.
func (d *instrumentedDaemon) Tick(now sim.Time, space *vmm.Space, alloc *vmm.Allocator) tiering.Report {
	rep := d.Daemon.Tick(now, space, alloc)
	if d.promoted != nil {
		d.promoted.Add(float64(rep.PromotedPages))
		d.demoted.Add(float64(rep.DemotedPages))
		d.migrated.Add(float64(rep.TotalBytes()))
	}
	threshold := d.CurrentThreshold()
	if d.thresh != nil {
		d.thresh.Set(threshold)
	}
	if d.tracer != nil {
		args := map[string]any{
			"promoted_pages": rep.PromotedPages,
			"demoted_pages":  rep.DemotedPages,
			"migrated_bytes": rep.TotalBytes(),
			"threshold":      threshold,
		}
		if d.ticked {
			d.tracer.Span("tiering", d.Name(), d.prevTick, now, args)
		} else {
			d.tracer.Instant("tiering", d.Name(), now, args)
		}
		if rep.TotalBytes() > 0 {
			d.tracer.Counter("tiering", "migration", now, map[string]float64{
				"promoted_bytes": float64(rep.PromotedBytes),
				"demoted_bytes":  float64(rep.DemotedBytes),
			})
		}
	}
	d.prevTick, d.ticked = now, true
	return rep
}

// RecordUtilization publishes a resource-name→utilization snapshot into
// the canonical gauge families and, when tr is non-nil, a counter sample
// on the "memsim" trace track. Used by epoch loops that track per-node
// utilization themselves (kvstore) rather than via the global solver
// hook.
func RecordUtilization(reg *Registry, tr *Tracer, at sim.Time, util map[string]float64, peaks map[string]float64) {
	if reg != nil {
		uv := reg.GaugeVec(MetricUtilization, "per-resource capacity fraction after the last solve", "resource")
		bv := reg.GaugeVec(MetricBandwidth, "per-resource estimated delivered bandwidth, GB/s", "resource")
		for name, u := range util {
			uv.With(name).Set(u)
			if peak, ok := peaks[name]; ok {
				bv.With(name).Set(u * peak)
			}
		}
	}
	if tr != nil && len(util) > 0 {
		tr.Counter("memsim", "utilization", at, util)
	}
}
