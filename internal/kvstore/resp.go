package kvstore

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"

	"cxlsim/internal/obs"
	"cxlsim/internal/resp"
	"cxlsim/internal/sim"
	"cxlsim/internal/spill"
	"cxlsim/internal/workload"
)

// RESPBackend serves the resp.Backend interface over a simulated Store
// and an optional durable spill tier — the bridge between wall-clock
// RESP clients (redis-cli, redis-benchmark) and the virtual-time
// service model.
//
// Division of labor:
//
//   - Real values live in an in-process map and, when a spill tier is
//     attached, in the Bitcask-style on-disk log — so data survives a
//     restart and GETs after recovery read through to disk.
//   - The Store prices every operation: the string key is FNV-hashed
//     into the simulated keyspace and charged through ServiceTime, so
//     placement policy, loaded memory latency, heat tracking, and the
//     Flash path all tick exactly as they do under the simulator. The
//     simulated nanoseconds accumulate on a virtual clock (exposed as
//     resp_virtual_time_ns) and feed the per-command latency
//     histograms; they do not delay the wall-clock reply.
//   - Every 10 virtual ms the accumulated traffic is folded through
//     EpochFlows, refreshing loaded latencies under the epoch's real
//     byte mix — the same co-simulation cadence as kvstore.Run.
//
// Brownout contract (the PR 4/8 playbook surfaced at the wire): while
// the degraded probe reports the spill device browned out, writes are
// rejected with -BUSY (counted in resp_shed_writes_total) and reads
// that would have to touch the disk log answer -LOADING; memory-resident
// reads keep serving.
//
// Durability contract: writes append to the tier under the mutex, and
// Commit (resp.Committer) makes them durable outside it, so the fsync
// never holds up other commands. The server commits before it sends a
// write's reply, which makes one fsync cover a pipelined burst and the
// concurrent writes of other connections. No reply acknowledges a write
// before its fsync; another connection may read a value that is not yet
// durable, as with Redis's appendfsync always. A tier opened without
// GroupCommit fsyncs inside each append, and Commit has nothing left to
// do.
//
// All methods are safe for concurrent use; one mutex serializes the
// store (the Store itself is single-threaded by contract).
type RESPBackend struct {
	mu    sync.Mutex
	store *Store
	tier  *spill.Dir // optional durable backing

	degraded func() bool // optional spill brownout probe

	vals map[string][]byte

	now       sim.Time // virtual clock, ns
	lastEpoch sim.Time
	shed      uint64

	latency *obs.HistogramVec
}

// NewRESPBackend wraps st (required) and tier (optional) for RESP
// serving. The store prices operations; the tier persists them.
func NewRESPBackend(st *Store, tier *spill.Dir) *RESPBackend {
	return &RESPBackend{
		store: st,
		tier:  tier,
		vals:  map[string][]byte{},
	}
}

// SetDegraded installs the spill brownout probe (e.g. a fault
// injector's TargetDegraded("/ssd")). Nil-safe; consulted per request.
func (b *RESPBackend) SetDegraded(fn func() bool) { b.degraded = fn }

// Instrument publishes the backend's simulated-latency histograms,
// virtual clock, keyspace size, and shed-write counter into reg. The
// last three read the backend's own state under its mutex.
func (b *RESPBackend) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	b.latency = reg.HistogramVec(obs.MetricRESPServiceNs,
		"simulated per-command service time, ns", nil, "cmd")
	reg.GaugeFunc(obs.MetricRESPVirtualTimeNs, "virtual time accumulated by the RESP backend, ns",
		func() float64 { return float64(b.VirtualNow()) })
	reg.GaugeFunc(obs.MetricRESPKeys, "live keys in the RESP keyspace", func() float64 {
		b.mu.Lock()
		defer b.mu.Unlock()
		return float64(len(b.vals))
	})
	reg.CounterFunc(obs.MetricRESPShedWrites, "RESP writes rejected with -BUSY during spill brownouts",
		func() float64 { return float64(b.ShedWrites()) })
}

// brownedOut reports whether the durable tier is currently degraded.
func (b *RESPBackend) brownedOut() bool {
	return b.tier != nil && b.degraded != nil && b.degraded()
}

// errBusy is the write-path brownout reply; errLoading the read path's.
var (
	errBusy = resp.ReplyError(
		"BUSY spill tier browned out; durable writes are shed until the device heals")
	errLoading = resp.ReplyError(
		"LOADING spill tier browned out; key is not memory-resident")
)

// simKey hashes a client key into the simulated keyspace.
func (b *RESPBackend) simKey(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return h.Sum64() % uint64(b.store.SimKeys())
}

// charge prices one operation through the store's service-time model,
// advances the virtual clock, and resolves an epoch when due. Caller
// holds b.mu.
func (b *RESPBackend) charge(cmd string, kind workload.OpKind, key []byte) {
	t := b.store.ServiceTime(workload.Op{Kind: kind, Key: b.simKey(key)})
	b.now += sim.Time(t)
	if b.now-b.lastEpoch >= epochNs {
		b.store.EpochFlows(float64(b.now - b.lastEpoch))
		b.lastEpoch = b.now
	}
	if b.latency != nil {
		b.latency.With(cmd).Observe(t)
	}
}

// checkKey bounds keys to what the durable tier can index. Empty keys
// are legal to Redis but unrepresentable in the spill log's record
// format, so durable mode rejects them.
func (b *RESPBackend) checkKey(key []byte) error {
	if b.tier != nil && len(key) == 0 {
		return resp.ReplyError("ERR empty keys are not supported in durable (-spill-dir) mode")
	}
	if len(key) > spill.MaxKeyLen {
		return resp.ReplyError(fmt.Sprintf("ERR key exceeds %d bytes", spill.MaxKeyLen))
	}
	return nil
}

// Get implements resp.Backend.
func (b *RESPBackend) Get(key []byte) ([]byte, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.get("get", key)
}

// get is the shared read path. Caller holds b.mu.
func (b *RESPBackend) get(cmd string, key []byte) ([]byte, bool, error) {
	if err := b.checkKey(key); err != nil {
		return nil, false, err
	}
	b.charge(cmd, workload.OpRead, key)
	if v, ok := b.vals[string(key)]; ok {
		return v, true, nil
	}
	if b.tier == nil || !b.tier.Has(key) {
		return nil, false, nil
	}
	// Disk-resident only (a previous process wrote it): read through,
	// unless the device is browned out.
	if b.brownedOut() {
		return nil, false, errLoading
	}
	v, ok, err := b.tier.Get(key)
	if err != nil {
		return nil, false, resp.ReplyError("BUSY spill tier error: " + err.Error())
	}
	if !ok {
		return nil, false, nil
	}
	b.vals[string(key)] = v
	return v, true, nil
}

// Set implements resp.Backend.
func (b *RESPBackend) Set(key, val []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.set("set", key, val)
}

// checkPair validates one key/value pair of a write.
func (b *RESPBackend) checkPair(key, val []byte) error {
	if err := b.checkKey(key); err != nil {
		return err
	}
	if len(val) > spill.MaxValLen {
		return resp.ReplyError(fmt.Sprintf("ERR value exceeds %d bytes", spill.MaxValLen))
	}
	return nil
}

// set is the shared write path. Caller holds b.mu.
func (b *RESPBackend) set(cmd string, key, val []byte) error {
	if err := b.checkPair(key, val); err != nil {
		return err
	}
	if b.brownedOut() {
		b.shed++
		return errBusy
	}
	return b.put(cmd, key, val)
}

// put writes one validated pair through the tier and into memory.
// Caller holds b.mu.
func (b *RESPBackend) put(cmd string, key, val []byte) error {
	if b.tier != nil {
		if err := b.tier.Put(key, val); err != nil {
			// Device failure mid-flight: same client contract as a
			// scheduled brownout.
			b.shed++
			return resp.ReplyError("BUSY spill tier error: " + err.Error())
		}
	}
	b.charge(cmd, workload.OpUpdate, key)
	b.vals[string(key)] = append([]byte(nil), val...)
	return nil
}

// Del implements resp.Backend.
func (b *RESPBackend) Del(keys [][]byte) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.brownedOut() {
		b.shed++
		return 0, errBusy
	}
	// Reject the whole command before deleting anything.
	for _, key := range keys {
		if err := b.checkKey(key); err != nil {
			return 0, err
		}
	}
	var n int64
	for _, key := range keys {
		_, inMem := b.vals[string(key)]
		onDisk := b.tier != nil && b.tier.Has(key)
		if !inMem && !onDisk {
			continue
		}
		if b.tier != nil {
			if err := b.tier.Delete(key); err != nil {
				b.shed++
				return n, resp.ReplyError("BUSY spill tier error: " + err.Error())
			}
		}
		b.charge("del", workload.OpUpdate, key)
		delete(b.vals, string(key))
		n++
	}
	return n, nil
}

// Exists implements resp.Backend. Pure index probe: no disk read, so it
// keeps answering during brownouts.
func (b *RESPBackend) Exists(keys [][]byte) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var n int64
	for _, key := range keys {
		if err := b.checkKey(key); err != nil {
			return n, err
		}
		b.charge("exists", workload.OpRead, key)
		if _, ok := b.vals[string(key)]; ok {
			n++
		} else if b.tier != nil && b.tier.Has(key) {
			n++
		}
	}
	return n, nil
}

// Incr implements resp.Backend.
func (b *RESPBackend) Incr(key []byte) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	cur, ok, err := b.get("incr", key)
	if err != nil {
		return 0, err
	}
	var n int64
	if ok {
		n, err = strconv.ParseInt(string(cur), 10, 64)
		if err != nil {
			return 0, resp.ReplyError("ERR value is not an integer or out of range")
		}
	}
	n++
	if err := b.set("incr", key, strconv.AppendInt(nil, n, 10)); err != nil {
		return 0, err
	}
	return n, nil
}

// MGet implements resp.Backend.
func (b *RESPBackend) MGet(keys [][]byte) ([][]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([][]byte, len(keys))
	for i, key := range keys {
		v, ok, err := b.get("mget", key)
		if err != nil {
			return nil, err
		}
		if ok {
			out[i] = v
		}
	}
	return out, nil
}

// MSet implements resp.Backend. Every pair is validated, and the
// brownout checked, before any is written, so a bad argument rejects the
// whole command. A spill-device error part-way through is per pair: the
// pairs before it stay written, the rest are not attempted.
func (b *RESPBackend) MSet(pairs [][]byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := 0; i+1 < len(pairs); i += 2 {
		if err := b.checkPair(pairs[i], pairs[i+1]); err != nil {
			return err
		}
	}
	if b.brownedOut() {
		b.shed++
		return errBusy
	}
	for i := 0; i+1 < len(pairs); i += 2 {
		if err := b.put("mset", pairs[i], pairs[i+1]); err != nil {
			return err
		}
	}
	return nil
}

// Info implements resp.Backend: a Redis-style INFO body covering the
// bridge between wall-clock serving and the virtual-time model.
func (b *RESPBackend) Info() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	hits, misses := b.store.CacheCounts()
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Server\r\ncxlsim_resp_version:1\r\nredis_mode:standalone\r\n")
	fmt.Fprintf(&sb, "# Keyspace\r\ndb0:keys=%d,expires=0,avg_ttl=0\r\n", len(b.vals))
	fmt.Fprintf(&sb, "# Simulation\r\nvirtual_time_ns:%.0f\r\nsim_keys:%d\r\n",
		float64(b.now), b.store.SimKeys())
	fmt.Fprintf(&sb, "cache_hits:%d\r\ncache_misses:%d\r\nhit_rate:%.4f\r\n",
		hits, misses, b.store.HitRate())
	if b.tier != nil {
		st := b.tier.Stats()
		degraded := 0
		if b.brownedOut() {
			degraded = 1
		}
		fmt.Fprintf(&sb, "# Durability\r\nspill_live_keys:%d\r\nspill_segments:%d\r\n",
			st.LiveKeys, st.Segments)
		fmt.Fprintf(&sb, "spill_records_written:%d\r\nspill_fsyncs:%d\r\n", st.RecordsWritten, st.Fsyncs)
		fmt.Fprintf(&sb, "spill_degraded:%d\r\nspill_shed_writes:%d\r\n", degraded, b.shed)
	}
	return sb.String()
}

// Commit implements resp.Committer: it returns once every write
// appended so far is on stable storage, and at once when nothing is
// unsynced or there is no tier.
func (b *RESPBackend) Commit() error {
	if b.tier == nil {
		return nil
	}
	b.mu.Lock()
	seq := b.tier.Seq()
	b.mu.Unlock()
	// SyncThrough may block in fsync. Called straight from a connection's
	// goroutine, that syscall can leave no thread polling the network,
	// so the other connections' requests wait for the fsync; starting a
	// goroutine for it makes the runtime wake an idle thread, which polls.
	done := make(chan error, 1)
	go func() { done <- b.tier.SyncThrough(seq) }()
	return <-done
}

// VirtualNow reports the backend's virtual clock (ns).
func (b *RESPBackend) VirtualNow() sim.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.now
}

// ShedWrites reports writes rejected during brownouts.
func (b *RESPBackend) ShedWrites() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shed
}
