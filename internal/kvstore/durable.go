package kvstore

import (
	"encoding/binary"
	"fmt"
	"sort"

	"cxlsim/internal/obs"
	"cxlsim/internal/spill"
)

// Durable spill mode: when StoreConfig.SpillDir is set (Flash configs
// only), the KeyDB-FLASH write path writes through to a real on-disk
// Bitcask-style log (internal/spill) instead of only charging the
// simulated SSD cost. The log is the durability backing, not the
// performance model — spill I/O never feeds back into service times, so
// healthy-run measurements are byte-identical with or without it.
//
// Brownout semantics: when the fault schedule degrades the SSD (any
// active fault on a resource matching "/ssd"), the store falls back to
// memory-only operation — writes are shed (counted, and their keys
// remembered as dirty) rather than blocking on a sick device. When the
// device heals, the dirty set is re-persisted in one deterministic
// catch-up pass.

// spillSyncEvery is the group-commit window: records per fsync on the
// store's write-through path. The crash matrix runs the spill tier
// directly at SyncEvery=1; the store trades a bounded ack window for not
// fsyncing every simulated op.
const spillSyncEvery = 8

// spillState carries the durable tier and its degraded-mode bookkeeping.
type spillState struct {
	dir     *spill.Dir
	healthy bool
	dirty   map[uint64]struct{} // keys shed during brownout, pending catch-up

	shed, catchup, mismatch uint64

	keyBuf [8]byte
	valBuf []byte
}

// openSpill attaches the durable tier to the store, recovering whatever
// a previous process left in the directory.
func (s *Store) openSpill() error {
	d, _, err := spill.Open(spill.Options{Dir: s.cfg.SpillDir, SyncEvery: spillSyncEvery})
	if err != nil {
		return fmt.Errorf("kvstore: opening spill tier: %w", err)
	}
	sp := &spillState{
		dir:     d,
		healthy: true,
		dirty:   map[uint64]struct{}{},
		valBuf:  make([]byte, valueBytes),
	}
	for i := 8; i < valueBytes; i++ {
		sp.valBuf[i] = 0xa5
	}
	s.spill = sp
	return nil
}

// key returns the canonical 8-byte big-endian record key.
func (sp *spillState) key(k uint64) []byte {
	binary.BigEndian.PutUint64(sp.keyBuf[:], k)
	return sp.keyBuf[:]
}

// payload returns the record body: the key self-identifies in the first
// 8 bytes so recovery verification can catch cross-linked records.
func (sp *spillState) payload(k uint64) []byte {
	binary.BigEndian.PutUint64(sp.valBuf[:8], k)
	return sp.valBuf
}

// spillWrite persists one simulated write through the durable tier, or
// sheds it (remembering the key) when the tier is browned out or the
// device has failed.
func (s *Store) spillWrite(key uint64) {
	sp := s.spill
	if !sp.healthy {
		sp.shedWrite(key)
		return
	}
	if err := sp.dir.Put(sp.key(key), sp.payload(key)); err != nil {
		// A real device failure behaves like an unscheduled brownout:
		// keep serving from memory, remember the key.
		sp.shedWrite(key)
		return
	}
	delete(sp.dirty, key)
}

func (sp *spillState) shedWrite(key uint64) {
	sp.shed++
	sp.dirty[key] = struct{}{}
}

// spillVerify cross-checks a simulated read miss against the durable
// tier: if the record exists on disk its body must self-identify as the
// requested key. Absent records are fine (the key was never written
// through); mismatches mean on-disk cross-linking and are counted.
func (s *Store) spillVerify(key uint64) {
	sp := s.spill
	if !sp.healthy {
		return
	}
	v, ok, err := sp.dir.Get(sp.key(key))
	if err != nil || !ok {
		return
	}
	if len(v) < 8 || binary.BigEndian.Uint64(v) != key {
		sp.mismatch++
	}
}

// HasSpill reports whether the store runs in durable spill mode.
func (s *Store) HasSpill() bool { return s.spill != nil }

// SetSpillHealthy flips the durable tier between healthy and browned
// out. Healing triggers the catch-up pass: every key shed during the
// brownout is re-persisted, in key order so the resulting log is a
// deterministic function of the shed set.
func (s *Store) SetSpillHealthy(h bool) {
	sp := s.spill
	if sp == nil || sp.healthy == h {
		return
	}
	sp.healthy = h
	if !h || len(sp.dirty) == 0 {
		return
	}
	keys := make([]uint64, 0, len(sp.dirty))
	for k := range sp.dirty {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if err := sp.dir.Put(sp.key(k), sp.payload(k)); err != nil {
			return // device died mid-catch-up; keys stay dirty
		}
		delete(sp.dirty, k)
		sp.catchup++
	}
	sp.dir.Sync()
}

// SpillStats exposes the durable tier's I/O counters (zero without one).
func (s *Store) SpillStats() spill.Stats {
	if s.spill == nil {
		return spill.Stats{}
	}
	return s.spill.dir.Stats()
}

// SpillRecovery exposes the recovery report from opening the tier.
func (s *Store) SpillRecovery() *spill.RecoveryReport {
	if s.spill == nil {
		return nil
	}
	return s.spill.dir.Recovery()
}

// SpillCounts reports the degraded-mode accounting: writes shed during
// brownouts, catch-up re-persists after healing, and read-back records
// whose body did not self-identify.
func (s *Store) SpillCounts() (shed, catchup, mismatch uint64) {
	if s.spill == nil {
		return 0, 0, 0
	}
	return s.spill.shed, s.spill.catchup, s.spill.mismatch
}

// SpillDirty reports how many shed keys still await catch-up.
func (s *Store) SpillDirty() int {
	if s.spill == nil {
		return 0
	}
	return len(s.spill.dirty)
}

// InstrumentSpill publishes the durable tier's I/O, recovery, and
// degraded-mode counters into the registry. No-op without a spill tier
// or registry. The degraded-mode counts are plain fields: the store is
// single-threaded, and only the run that drives it reads the registry
// before the run returns.
func (s *Store) InstrumentSpill(reg *obs.Registry) {
	sp := s.spill
	if sp == nil || reg == nil {
		return
	}
	sp.dir.Instrument(reg)
	reg.CounterFunc(obs.MetricSpillShedWrites, "writes shed during spill-tier brownouts",
		func() float64 { return float64(sp.shed) })
	reg.CounterFunc(obs.MetricSpillCatchupWrites, "shed writes re-persisted after the tier healed",
		func() float64 { return float64(sp.catchup) })
	reg.CounterFunc(obs.MetricSpillReadMismatch, "spill read-backs whose body did not self-identify",
		func() float64 { return float64(sp.mismatch) })
}

// CloseSpill syncs and closes the durable tier (idempotent, nil-safe).
func (s *Store) CloseSpill() error {
	if s.spill == nil {
		return nil
	}
	err := s.spill.dir.Close()
	s.spill = nil
	return err
}
