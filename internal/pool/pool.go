// Package pool extends cxlsim beyond the paper's CXL 1.1 scope into the
// §7 vision: CXL 2.0/3.0 memory pooling, where a multi-headed device (or
// fabric of them) exposes capacity to up to 16 hosts that allocate from
// it dynamically.
//
// Two questions the paper raises for future work are answerable here:
//
//  1. Capacity economics — how much provisioned DRAM does pooling strand
//     less of? Hosts provision local DRAM for typical demand and borrow
//     pooled capacity for bursts, instead of provisioning every host for
//     its own peak (the Pond/memory-disaggregation argument the paper
//     cites).
//  2. Performance interference — pooled bandwidth is shared, so a noisy
//     neighbor inflates everyone's loaded latency; the same memsim
//     machinery that models single-host contention quantifies it.
package pool

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cxlsim/internal/memsim"
	"cxlsim/internal/stats"
)

// MaxHeads is the CXL 2.0 limit on hosts per multi-logical device.
const MaxHeads = 16

// ErrExhausted is returned when the pool cannot satisfy an allocation.
var ErrExhausted = errors.New("pool: capacity exhausted")

// Device is one multi-headed CXL 2.0 expander: shared capacity and
// shared bandwidth behind per-host CXL links.
type Device struct {
	Name     string
	Capacity uint64

	res    *memsim.Resource
	used   uint64
	byHost map[int]uint64
}

// NewDevice builds a pooled device with the A1000-class bandwidth
// profile. CXL 2.0 adds a switch hop; +35 ns idle latency over the
// direct-attach device models it.
func NewDevice(name string, capacity uint64) *Device {
	res := memsim.NewCXLDevice(name)
	res.IdleRead += 35
	res.IdleWrite += 35
	return &Device{Name: name, Capacity: capacity, res: res, byHost: map[int]uint64{}}
}

// Resource exposes the shared bandwidth stage.
func (d *Device) Resource() *memsim.Resource { return d.res }

// Free reports unallocated bytes.
func (d *Device) Free() uint64 { return d.Capacity - d.used }

// HostUsage reports one host's allocation on this device.
func (d *Device) HostUsage(host int) uint64 { return d.byHost[host] }

// Pool is a set of pooled devices shared by registered hosts.
type Pool struct {
	devices []*Device
	hosts   int
}

// New builds a pool over the devices for the given host count.
func New(hosts int, devices ...*Device) (*Pool, error) {
	if hosts < 1 || hosts > MaxHeads {
		return nil, fmt.Errorf("pool: host count %d outside [1,%d] (CXL 2.0 MLD limit)", hosts, MaxHeads)
	}
	if len(devices) == 0 {
		return nil, errors.New("pool: no devices")
	}
	return &Pool{devices: devices, hosts: hosts}, nil
}

// Hosts reports the registered host count.
func (p *Pool) Hosts() int { return p.hosts }

// Capacity reports total pool capacity.
func (p *Pool) Capacity() uint64 {
	var sum uint64
	for _, d := range p.devices {
		sum += d.Capacity
	}
	return sum
}

// Alloc grants bytes to a host, first-fit across devices. Partial
// success is rolled back; ErrExhausted leaves the pool unchanged.
func (p *Pool) Alloc(host int, bytes uint64) error {
	if host < 0 || host >= p.hosts {
		return fmt.Errorf("pool: unknown host %d", host)
	}
	if bytes == 0 {
		return nil
	}
	type grant struct {
		d *Device
		n uint64
	}
	var grants []grant
	remaining := bytes
	for _, d := range p.devices {
		if remaining == 0 {
			break
		}
		take := d.Free()
		if take > remaining {
			take = remaining
		}
		if take == 0 {
			continue
		}
		grants = append(grants, grant{d, take})
		remaining -= take
	}
	if remaining > 0 {
		return fmt.Errorf("%w: need %d more bytes", ErrExhausted, remaining)
	}
	for _, g := range grants {
		g.d.used += g.n
		g.d.byHost[host] += g.n
	}
	return nil
}

// Release returns bytes from a host to the pool (clamped at the host's
// current usage).
func (p *Pool) Release(host int, bytes uint64) {
	remaining := bytes
	for _, d := range p.devices {
		if remaining == 0 {
			return
		}
		have := d.byHost[host]
		take := have
		if take > remaining {
			take = remaining
		}
		d.byHost[host] -= take
		d.used -= take
		remaining -= take
	}
}

// HostUsage reports a host's total pooled allocation.
func (p *Pool) HostUsage(host int) uint64 {
	var sum uint64
	for _, d := range p.devices {
		sum += d.byHost[host]
	}
	return sum
}

// --- capacity economics (§7, Pond-style stranding analysis) ---

// DemandModel generates per-epoch memory demand for one host, in bytes.
type DemandModel interface {
	Next() uint64
}

// LogNormalDemand is a bursty demand model: median demand with
// multiplicative spread.
type LogNormalDemand struct {
	Median uint64
	Sigma  float64
	rng    *rand.Rand
}

// NewLogNormalDemand builds a demand model.
func NewLogNormalDemand(median uint64, sigma float64, seed int64) *LogNormalDemand {
	if median == 0 || sigma < 0 {
		panic("pool: invalid demand model")
	}
	return &LogNormalDemand{Median: median, Sigma: sigma, rng: rand.New(rand.NewSource(seed))}
}

// Next draws one demand sample: median · e^(σ·N(0,1)).
func (l *LogNormalDemand) Next() uint64 {
	return uint64(float64(l.Median) * math.Exp(l.rng.NormFloat64()*l.Sigma))
}

// ProvisioningStudy compares static per-host provisioning against
// local-DRAM + pooled-CXL provisioning for a fleet of bursty hosts.
type ProvisioningStudy struct {
	Hosts  int
	Epochs int
	// Quantile sets the provisioning target (e.g. 0.99: capacity covers
	// 99% of epochs without failure).
	Quantile float64
}

// StudyResult reports the capacity comparison.
type StudyResult struct {
	// StaticBytes: every host provisions its own Quantile demand.
	StaticBytes uint64
	// PooledLocalBytes: per-host local DRAM at median demand.
	PooledLocalBytes uint64
	// PooledCXLBytes: shared pool sized at the Quantile of aggregate
	// burst demand.
	PooledCXLBytes uint64
	// SavingFrac = 1 − pooled/static.
	SavingFrac float64
}

// Run executes the study over the demand models (one per host).
func (s ProvisioningStudy) Run(models []DemandModel) (StudyResult, error) {
	if len(models) != s.Hosts || s.Hosts < 1 {
		return StudyResult{}, fmt.Errorf("pool: need %d demand models, have %d", s.Hosts, len(models))
	}
	if s.Epochs < 10 {
		return StudyResult{}, errors.New("pool: need at least 10 epochs")
	}
	if s.Quantile <= 0 || s.Quantile >= 1 {
		return StudyResult{}, errors.New("pool: quantile outside (0,1)")
	}
	perHost := make([][]float64, s.Hosts)
	agg := make([]float64, s.Epochs)
	for e := 0; e < s.Epochs; e++ {
		for h, m := range models {
			d := float64(m.Next())
			perHost[h] = append(perHost[h], d)
			agg[e] += d
		}
	}
	var res StudyResult
	q := s.Quantile * 100
	for h := 0; h < s.Hosts; h++ {
		res.StaticBytes += uint64(stats.Percentiles(perHost[h], q)[0])
		res.PooledLocalBytes += uint64(stats.Percentiles(perHost[h], 50)[0])
	}
	// The pool only absorbs the part of aggregate demand above the sum
	// of local provisioning.
	local := float64(res.PooledLocalBytes)
	excess := make([]float64, 0, s.Epochs)
	for _, a := range agg {
		e := a - local
		if e < 0 {
			e = 0
		}
		excess = append(excess, e)
	}
	sort.Float64s(excess)
	res.PooledCXLBytes = uint64(stats.Percentiles(excess, q)[0])
	pooledTotal := res.PooledLocalBytes + res.PooledCXLBytes
	if res.StaticBytes > 0 {
		res.SavingFrac = 1 - float64(pooledTotal)/float64(res.StaticBytes)
	}
	return res, nil
}

// --- performance interference ---

// Interference evaluates noisy-neighbor impact: victim and aggressor
// hosts share the pooled device; returns the victim's loaded latency
// with and without the aggressors.
func Interference(d *Device, victimGBps float64, aggressors int, aggressorGBps float64) (alone, shared float64) {
	path := memsim.NewPath(d.Name+"/victim", d.res)
	pl := memsim.SinglePath(path)
	mix := memsim.Mix{ReadFrac: 0.75}
	solo, _ := memsim.SolveOpen([]memsim.OpenFlow{{Placement: pl, Mix: mix, Offered: victimGBps}})
	flows := []memsim.OpenFlow{{Placement: pl, Mix: mix, Offered: victimGBps}}
	for i := 0; i < aggressors; i++ {
		flows = append(flows, memsim.OpenFlow{Placement: pl, Mix: mix, Offered: aggressorGBps})
	}
	all, _ := memsim.SolveOpen(flows)
	return solo[0].Latency, all[0].Latency
}
