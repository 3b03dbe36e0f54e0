package fault

import (
	"errors"
	"strings"
	"sync"
)

// ErrDiskCrashed is what every I/O op on a crashed DiskInjector returns:
// the simulated machine lost power, so nothing issued after the crash
// boundary reaches the device.
var ErrDiskCrashed = errors.New("fault: disk crashed at injected boundary")

// DiskFault configures the deterministic durability-fault shim. The
// zero value injects nothing. Boundaries are counted across every
// physical write and fsync the spill tier issues, in issue order, so a
// crash point is a pure function of the workload — replaying the same
// seeded workload with CrashAtBoundary = k for every k is the crash
// matrix.
type DiskFault struct {
	// CrashAtBoundary kills the device at the k-th I/O boundary
	// (0-based); that boundary itself fails, and every later op returns
	// ErrDiskCrashed. Negative = never.
	CrashAtBoundary int
	// TornBytes is how many bytes of the crashing write still reach the
	// platter — the torn-write model. Ignored when the crash boundary
	// lands on a sync. Negative tears nothing; values past the write
	// length are clamped.
	TornBytes int
	// FlipWrite silently corrupts the n-th write (0-based) by XOR-ing
	// one bit — the bit-rot model fsck must catch via checksums.
	// Negative = never.
	FlipWrite int
	// FlipByte/FlipBit locate the flipped bit within that write (byte
	// offset is clamped into range).
	FlipByte int
	FlipBit  uint
}

// DiskInjector implements the spill tier's write-layer shim (it
// satisfies spill.Shim structurally; this package does not import
// spill). It is deterministic and single-use: one injector models one
// device lifetime ending in at most one crash. It is safe for concurrent
// use: the spill tier's group commit fsyncs outside the owner's lock
// while the owner keeps writing, and boundaries are counted in the
// order the calls take the injector's mutex.
type DiskInjector struct {
	mu         sync.Mutex
	cfg        DiskFault
	boundaries int
	writes     int
	crashed    bool
}

// NewDiskInjector builds a shim from the fault description. A zero
// DiskFault still counts boundaries (the probe mode the crash matrix
// uses to size itself) but never fails.
func NewDiskInjector(cfg DiskFault) *DiskInjector {
	if cfg.CrashAtBoundary < 0 {
		cfg.CrashAtBoundary = -1
	}
	if cfg.FlipWrite < 0 {
		cfg.FlipWrite = -1
	}
	return &DiskInjector{cfg: cfg}
}

// NeverCrash is the probe configuration: count boundaries, fail nothing.
func NeverCrash() DiskFault { return DiskFault{CrashAtBoundary: -1, FlipWrite: -1} }

// Write intercepts one physical append. The returned slice is what the
// device persists: the full buffer normally, a mutated copy when this
// write is the bit-flip target, a torn prefix when the crash boundary
// lands here, nothing once crashed.
func (d *DiskInjector) Write(name string, off int64, p []byte) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return nil, ErrDiskCrashed
	}
	b := d.boundaries
	d.boundaries++
	w := d.writes
	d.writes++
	out := p
	if w == d.cfg.FlipWrite && len(p) > 0 {
		out = append([]byte(nil), p...)
		i := d.cfg.FlipByte
		if i < 0 {
			i = 0
		}
		if i >= len(out) {
			i = len(out) - 1
		}
		out[i] ^= 1 << (d.cfg.FlipBit % 8)
	}
	if b == d.cfg.CrashAtBoundary {
		d.crashed = true
		n := d.cfg.TornBytes
		if n < 0 {
			n = 0
		}
		if n > len(out) {
			n = len(out)
		}
		return out[:n], ErrDiskCrashed
	}
	return out, nil
}

// Sync intercepts one fsync boundary.
func (d *DiskInjector) Sync(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrDiskCrashed
	}
	b := d.boundaries
	d.boundaries++
	if b == d.cfg.CrashAtBoundary {
		d.crashed = true
		return ErrDiskCrashed
	}
	return nil
}

// Boundaries returns how many write/sync boundaries have been counted.
func (d *DiskInjector) Boundaries() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.boundaries
}

// Crashed reports whether the injected crash has fired.
func (d *DiskInjector) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

// TargetDegraded reports whether any resource whose name contains sub
// (case-insensitive) currently has an active fault — the hook cxlserve's
// RESP backend uses to detect a spill-device brownout from the same
// schedules that degrade the memory fabric.
func (inj *Injector) TargetDegraded(sub string) bool {
	if inj == nil {
		return false
	}
	needle := strings.ToLower(sub)
	for r, live := range inj.active {
		if len(live) > 0 && strings.Contains(strings.ToLower(r.Name), needle) {
			return true
		}
	}
	return false
}
