package spill

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"cxlsim/internal/obs"
)

// Shim intercepts every physical write and fsync of the tier. It is the
// durability-fault injection point: internal/fault's DiskInjector
// satisfies it structurally (spill does not import fault). Write may
// return a shortened or mutated copy of p — the returned bytes are what
// actually reach the file — and an error marks the device dead: the Dir
// persists the returned prefix (the torn write hit the platter), fails
// the in-flight operation, and refuses all further I/O.
type Shim interface {
	Write(name string, off int64, p []byte) ([]byte, error)
	Sync(name string) error
}

// Options configures a Dir.
type Options struct {
	Dir string
	// SegmentBytes is the rotation threshold (default 4 MiB).
	SegmentBytes int64
	// GroupCommit leaves appends unsynced: only rotation, Sync and
	// SyncThrough flush, and a crash loses everything since the last
	// flush boundary. By default every Put is durable before it returns.
	GroupCommit bool
	// Shim, when non-nil, intercepts physical writes and fsyncs.
	Shim Shim
}

func (o *Options) fill() {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 4 << 20
	}
}

// entry is one keydir slot: where the newest live record for a key sits.
type entry struct {
	seg  uint32
	off  int64
	size uint32
	seq  uint64
}

// Stats counts the tier's I/O since Open.
type Stats struct {
	RecordsWritten uint64
	BytesWritten   uint64
	Reads          uint64
	Fsyncs         uint64
	LiveKeys       int
	Segments       int
}

// Dir is an open spill tier rooted at one directory. It is not safe for
// concurrent use: its owner (kvstore's RESP backend) wraps it in its own
// lock. SyncThrough is the one exception: it may be called without that
// lock.
type Dir struct {
	opts Options

	keydir map[string]entry
	seq    uint64

	// tombs tracks tombstones appended to the active segment (newest per
	// key), so its hint can carry them — without this, hint-based
	// recovery would resurrect keys whose delete lives in that segment.
	tombs map[string]hintEntry

	active   *os.File
	activeID uint32
	// activeSize includes torn bytes a failed write left on the tail.
	activeSize int64

	// sealed read handles, opened on demand.
	readers map[uint32]*os.File

	c commitState

	recovery *RecoveryReport
	n        counts
}

// commitState is what the owner shares with SyncThrough callers. The
// owner publishes each append's sequence number together with the
// segment that holds it, so a rotation cannot split them. Rotation
// fsyncs the segment it seals, so syncing file covers every record
// through appended. mu guards every field.
type commitState struct {
	mu       sync.Mutex
	synced   *sync.Cond // broadcast when a SyncThrough leader's fsync ends
	file     *os.File   // segment holding record appended; nil once closed
	appended uint64     // newest seq written to file
	durable  uint64     // newest seq known to be on stable storage
	syncing  bool       // a leader's fsync is in flight
	failed   error      // sticky device failure: every later op returns it
}

// errClosed is what SyncThrough returns for records a closed Dir never
// made durable.
var errClosed = errors.New("spill: closed")

// counts is the tier's own I/O accounting. The fields are atomics because
// the functions Instrument registers read them from whatever goroutine
// scrapes the registry while the owner writes; Stats loads them.
type counts struct {
	records, bytes, reads, fsyncs atomic.Uint64
	liveKeys, segments            atomic.Uint64 // current values, not totals
}

// Open opens (creating if needed) the tier at opts.Dir, recovering
// existing segments: hint files accelerate sealed segments, torn tails
// are truncated, corrupt ranges are quarantined, and the keydir is
// rebuilt deterministically. The returned RecoveryReport describes what
// recovery found.
func Open(opts Options) (*Dir, *RecoveryReport, error) {
	opts.fill()
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("spill: empty directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("spill: %w", err)
	}
	d := &Dir{
		opts:    opts,
		keydir:  map[string]entry{},
		readers: map[uint32]*os.File{},
	}
	rep, err := d.recover()
	if err != nil {
		return nil, nil, err
	}
	d.recovery = rep
	d.c.synced = sync.NewCond(&d.c.mu)
	d.c.durable = d.seq // recovery trusts what the disk holds
	d.publish()
	d.n.liveKeys.Store(uint64(len(d.keydir)))
	d.n.segments.Store(uint64(rep.Segments))
	return d, rep, nil
}

func segName(id uint32) string  { return fmt.Sprintf("%08d.seg", id) }
func hintName(id uint32) string { return fmt.Sprintf("%08d.hnt", id) }

func (d *Dir) segPath(id uint32) string  { return filepath.Join(d.opts.Dir, segName(id)) }
func (d *Dir) hintPath(id uint32) string { return filepath.Join(d.opts.Dir, hintName(id)) }

// segmentIDs lists the segment ids present on disk, sorted ascending.
func segmentIDs(dir string) ([]uint32, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	var ids []uint32
	for _, e := range ents {
		var id uint32
		if n, _ := fmt.Sscanf(e.Name(), "%08d.seg", &id); n == 1 && e.Name() == segName(id) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// Put appends a key/value record; when it returns nil the write is
// acknowledged (and, without GroupCommit, durable).
func (d *Dir) Put(key, val []byte) error {
	return d.append(Record{Key: key, Val: val})
}

// Delete appends a tombstone for key.
func (d *Dir) Delete(key []byte) error {
	return d.append(Record{Key: key, Tombstone: true})
}

func (d *Dir) append(r Record) error {
	if err := d.err(); err != nil {
		return err
	}
	if len(r.Key) == 0 || len(r.Key) > MaxKeyLen || len(r.Val) > MaxValLen {
		return fmt.Errorf("spill: key/value size out of range (%d/%d)", len(r.Key), len(r.Val))
	}
	r.Seq = d.seq + 1
	buf := EncodeRecord(r)
	off := d.activeSize
	if err := d.write(d.active, off, buf); err != nil {
		return err
	}
	d.seq = r.Seq
	d.publish()
	if r.Tombstone {
		delete(d.keydir, string(r.Key))
		d.tombs[string(r.Key)] = hintEntry{key: r.Key, off: off, seq: r.Seq}
	} else {
		d.keydir[string(r.Key)] = entry{seg: d.activeID, off: off, size: uint32(len(buf)), seq: r.Seq}
	}
	d.n.records.Add(1)
	d.n.liveKeys.Store(uint64(len(d.keydir)))
	if !d.opts.GroupCommit {
		if err := d.Sync(); err != nil {
			return err
		}
	}
	if d.activeSize >= d.opts.SegmentBytes {
		return d.rotate()
	}
	return nil
}

// write routes one physical write through the shim and the file,
// advancing activeSize by whatever was persisted (possibly a torn
// prefix) when f is the active segment.
func (d *Dir) write(f *os.File, off int64, p []byte) error {
	buf, serr := p, error(nil)
	if d.opts.Shim != nil {
		buf, serr = d.opts.Shim.Write(f.Name(), off, p)
	}
	var n int
	if len(buf) > 0 {
		var werr error
		n, werr = f.WriteAt(buf, off)
		if werr != nil && serr == nil {
			serr = fmt.Errorf("spill: %s: %w", f.Name(), werr)
		}
	}
	if f == d.active {
		d.activeSize = off + int64(n)
	}
	d.n.bytes.Add(uint64(n))
	if serr != nil {
		return d.fail(serr)
	}
	return nil
}

// err returns the sticky device failure, if any.
func (d *Dir) err() error {
	d.c.mu.Lock()
	defer d.c.mu.Unlock()
	return d.c.failed
}

// fail records err as the sticky device failure (the first one wins)
// and returns it.
func (d *Dir) fail(err error) error {
	d.c.mu.Lock()
	defer d.c.mu.Unlock()
	if d.c.failed == nil {
		d.c.failed = err
	}
	return err
}

// publish hands the newest appended sequence number and the active
// segment holding it to SyncThrough callers. Owner only.
func (d *Dir) publish() {
	d.c.mu.Lock()
	d.c.file, d.c.appended = d.active, d.seq
	d.c.mu.Unlock()
}

// fsync flushes f through the shim and the file; any failure kills the
// device. Safe without the owner's lock.
func (d *Dir) fsync(f *os.File) error {
	if d.opts.Shim != nil {
		if err := d.opts.Shim.Sync(f.Name()); err != nil {
			return d.fail(err)
		}
	}
	if err := f.Sync(); err != nil {
		return d.fail(fmt.Errorf("spill: %s: %w", f.Name(), err))
	}
	d.n.fsyncs.Add(1)
	return nil
}

// markDurable records that every record through seq is on stable
// storage. Caller holds d.c.mu.
func (d *Dir) markDurable(seq uint64) {
	if seq > d.c.durable {
		d.c.durable = seq
	}
}

// Sync flushes the active segment to stable storage.
func (d *Dir) Sync() error {
	if err := d.err(); err != nil {
		return err
	}
	if err := d.fsync(d.active); err != nil {
		return err
	}
	d.c.mu.Lock()
	d.markDurable(d.seq)
	d.c.mu.Unlock()
	return nil
}

// SyncThrough returns once every record through seq (a value Seq
// returned) is on stable storage. It is the one Dir method safe to call
// without the owner's lock, and it is how a server takes fsync off its
// request lock: append under the lock, read Seq, unlock, then
// SyncThrough before acknowledging.
//
// Concurrent callers group-commit. A caller whose seq is already
// durable returns at once. Otherwise the first caller in becomes the
// leader and fsyncs everything appended so far; later callers wait for
// that fsync and return if it covered them, or lead the next one. A
// failed fsync fails the device for every caller and for the owner.
func (d *Dir) SyncThrough(seq uint64) error {
	c := &d.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.durable < seq {
		switch {
		case c.failed != nil:
			return c.failed
		case c.file == nil:
			return errClosed
		case seq > c.appended:
			return fmt.Errorf("spill: sync through seq %d, newest appended is %d", seq, c.appended)
		case c.syncing:
			c.synced.Wait()
			continue
		}
		f, target := c.file, c.appended
		c.syncing = true
		c.mu.Unlock()
		err := d.fsync(f)
		c.mu.Lock()
		c.syncing = false
		if err == nil {
			d.markDurable(target)
		}
		c.synced.Broadcast()
	}
	return nil
}

// rotate seals the active segment — fsync, hint file, close — and opens
// the next one. The hint write goes through the shim too, so the crash
// matrix covers death mid-hint: recovery then ignores the bad hint and
// rescans the segment.
func (d *Dir) rotate() error {
	if err := d.Sync(); err != nil {
		return err
	}
	sealedID := d.activeID
	sealed := d.active
	if err := d.writeHint(sealedID); err != nil {
		// The segment itself is durable; a hint failure only loses the
		// fast-recovery path. Device-dead errors stay sticky.
		if err := d.err(); err != nil {
			return err
		}
	}
	// Keep the sealed handle for reads.
	d.readers[sealedID] = sealed
	d.tombs = map[string]hintEntry{}
	d.activeID++
	f, err := os.OpenFile(d.segPath(d.activeID), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return d.fail(fmt.Errorf("spill: %w", err))
	}
	d.active = f
	d.activeSize = 0
	d.n.segments.Add(1)
	return nil
}

// writeHint writes the sealed segment's live keydir entries as a single
// checksummed hint file: one shim write plus one fsync.
func (d *Dir) writeHint(id uint32) error {
	buf := encodeHint(d.hintEntries(id))
	f, err := os.OpenFile(d.hintPath(id), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	werr := d.write(f, 0, buf)
	if werr == nil {
		werr = d.fsync(f)
	}
	if cerr := f.Close(); cerr != nil && werr == nil {
		werr = fmt.Errorf("spill: %w", cerr)
	}
	return werr
}

// hintEntries collects the live keydir entries pointing into segment id
// plus the segment's tombstones (size 0 marks a tombstone — real
// records are never smaller than their header), sorted by offset so the
// hint (and any recovery from it) is deterministic. Tombstones must be
// carried: the hint replaces the segment scan, and a scan would have
// seen the delete.
func (d *Dir) hintEntries(id uint32) []hintEntry {
	var hes []hintEntry
	for k, e := range d.keydir {
		if e.seg == id {
			hes = append(hes, hintEntry{key: []byte(k), off: e.off, size: e.size, seq: e.seq})
		}
	}
	for _, he := range d.tombs {
		hes = append(hes, he)
	}
	sort.Slice(hes, func(i, j int) bool { return hes[i].off < hes[j].off })
	return hes
}

// Get returns the newest value for key, reading and checksum-verifying
// the record from disk. ok is false for absent or deleted keys.
func (d *Dir) Get(key []byte) (val []byte, ok bool, err error) {
	e, hit := d.keydir[string(key)]
	if !hit {
		return nil, false, nil
	}
	f, err := d.readerFor(e.seg)
	if err != nil {
		return nil, false, err
	}
	buf := make([]byte, e.size)
	if _, err := f.ReadAt(buf, e.off); err != nil {
		return nil, false, fmt.Errorf("spill: %s@%d: %w", segName(e.seg), e.off, err)
	}
	r, _, err := DecodeRecord(buf)
	if err != nil {
		return nil, false, fmt.Errorf("spill: %s@%d: %w", segName(e.seg), e.off, err)
	}
	d.n.reads.Add(1)
	out := make([]byte, len(r.Val))
	copy(out, r.Val)
	return out, true, nil
}

// Has reports whether key is live, without touching disk.
func (d *Dir) Has(key []byte) bool {
	_, ok := d.keydir[string(key)]
	return ok
}

func (d *Dir) readerFor(id uint32) (*os.File, error) {
	if id == d.activeID {
		return d.active, nil
	}
	if f, ok := d.readers[id]; ok {
		return f, nil
	}
	f, err := os.Open(d.segPath(id))
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	d.readers[id] = f
	return f, nil
}

// Seq returns the sequence number of the newest appended record.
func (d *Dir) Seq() uint64 { return d.seq }

// Stats returns a snapshot of the tier's counters.
func (d *Dir) Stats() Stats {
	return Stats{
		RecordsWritten: d.n.records.Load(),
		BytesWritten:   d.n.bytes.Load(),
		Reads:          d.n.reads.Load(),
		Fsyncs:         d.n.fsyncs.Load(),
		LiveKeys:       int(d.n.liveKeys.Load()),
		Segments:       int(d.n.segments.Load()),
	}
}

// Close syncs (best effort once failed) and closes every handle.
//
// Close is idempotent by contract: the first call does the work and
// nils out every handle, so later calls are no-ops returning nil. This
// matters for process teardown, where a deferred Close routinely races
// an explicit shutdown-path Close (the cxlserve drain path) — a second
// Close must never double-close file descriptors or report a spurious
// error. Other methods are NOT safe after Close; only Close itself may
// be repeated, and SyncThrough answers for what Close made durable and
// fails for anything else.
func (d *Dir) Close() error {
	// Wait out an in-flight SyncThrough leader before its file closes;
	// later callers find the Dir closed.
	d.c.mu.Lock()
	for d.c.syncing {
		d.c.synced.Wait()
	}
	d.c.file = nil
	d.c.mu.Unlock()
	var first error
	if d.err() == nil && d.active != nil {
		first = d.Sync()
	}
	if d.active != nil {
		if err := d.active.Close(); err != nil && first == nil {
			first = err
		}
		d.active = nil
	}
	for id, f := range d.readers {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(d.readers, id)
	}
	return first
}

// Instrument publishes the tier's counters and the recovery report into
// the registry. Call once, right after Open. The I/O families read the
// tier's own counts, so they include any activity before the call and are
// safe to scrape while another goroutine drives the tier.
func (d *Dir) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc(obs.MetricSpillRecordsWritten, "records appended to the spill log", load(&d.n.records))
	reg.CounterFunc(obs.MetricSpillBytesWritten, "bytes physically written to the spill log", load(&d.n.bytes))
	reg.CounterFunc(obs.MetricSpillReads, "records read back from the spill log", load(&d.n.reads))
	reg.CounterFunc(obs.MetricSpillFsyncs, "spill log fsyncs", load(&d.n.fsyncs))
	reg.GaugeFunc(obs.MetricSpillLiveKeys, "live keys in the spill keydir", load(&d.n.liveKeys))
	reg.GaugeFunc(obs.MetricSpillSegments, "spill log segments on disk", load(&d.n.segments))
	if rep := d.recovery; rep != nil {
		reg.Counter(obs.MetricSpillRecoveryScanned, "records scanned during spill recovery").
			Add(float64(rep.RecordsScanned))
		reg.Counter(obs.MetricSpillRecoveryQuarantined, "corrupt records quarantined during spill recovery").
			Add(float64(rep.QuarantinedRecords))
		reg.Counter(obs.MetricSpillRecoveryTornBytes, "torn tail bytes truncated during spill recovery").
			Add(float64(rep.TornBytesTruncated))
		reg.Gauge(obs.MetricSpillRecoveryNs, "wall-clock duration of the last spill recovery, ns").
			Set(float64(rep.DurationNs))
	}
}

// load adapts an atomic count to a registry function.
func load(c *atomic.Uint64) func() float64 {
	return func() float64 { return float64(c.Load()) }
}
