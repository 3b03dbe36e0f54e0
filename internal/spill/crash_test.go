package spill_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"cxlsim/internal/fault"
	"cxlsim/internal/par"
	"cxlsim/internal/spill"
)

// crashOp is one step of the seeded crash-matrix workload.
type crashOp struct {
	key    []byte
	val    []byte // nil = delete
	delete bool
}

// crashWorkload expands a seed into a deterministic op sequence mixing
// fresh puts, overwrites, and deletes over a small keyspace, sized to
// force several segment rotations (and therefore hint writes) inside
// the boundary budget.
func crashWorkload(seed int64, n int) []crashOp {
	rng := rand.New(rand.NewSource(seed))
	ver := map[int]int{}
	ops := make([]crashOp, 0, n)
	for i := 0; i < n; i++ {
		k := rng.Intn(12)
		if rng.Float64() < 0.15 && ver[k] > 0 {
			ops = append(ops, crashOp{key: key(k), delete: true})
			ver[k] = 0
			continue
		}
		ver[k]++
		ops = append(ops, crashOp{key: key(k), val: val(k, ver[k])})
	}
	return ops
}

const (
	matrixSeed = 1234
	matrixOps  = 60
	matrixSeg  = 384 // bytes; tiny so the workload rotates several times
)

// runCrashWorkload replays ops against a fresh dir under the shim,
// maintaining the acknowledged model as it goes. It stops at the first
// error (the device is dead past the crash boundary) and returns the
// acked state plus the op in flight when the crash hit (nil if none).
func runCrashWorkload(t *testing.T, dir string, shim spill.Shim, ops []crashOp) (acked map[string][]byte, inflight *crashOp) {
	t.Helper()
	d, _, err := spill.Open(spill.Options{Dir: dir, SegmentBytes: matrixSeg, Shim: shim})
	if err != nil {
		t.Fatalf("open under shim: %v", err)
	}
	defer d.Close()
	acked = map[string][]byte{}
	for i := range ops {
		op := ops[i]
		if op.delete {
			err = d.Delete(op.key)
		} else {
			err = d.Put(op.key, op.val)
		}
		if err != nil {
			return acked, &ops[i]
		}
		if op.delete {
			delete(acked, string(op.key))
		} else {
			acked[string(op.key)] = op.val
		}
	}
	return acked, nil
}

// verifyRecovery opens the crashed dir (recovering it) and asserts the
// durability contract: every acknowledged write survives with its exact
// value, the in-flight op is either fully absent or fully applied, and
// nothing else is visible.
func verifyRecovery(t *testing.T, k int, dir string, acked map[string][]byte, inflight *crashOp) *spill.RecoveryReport {
	t.Helper()
	d, rep, err := spill.Open(spill.Options{Dir: dir})
	if err != nil {
		t.Fatalf("boundary %d: recovery failed: %v", k, err)
	}
	defer d.Close()
	// The in-flight op may legally have reached the platter before the
	// crash (e.g. crash landed on its fsync): complete-but-unacked is
	// allowed, half-visible is not.
	expected := len(acked)
	if inflight != nil {
		ks := string(inflight.key)
		v, ok, err := d.Get(inflight.key)
		if err != nil {
			t.Fatalf("boundary %d: in-flight key unreadable: %v", k, err)
		}
		old, hadOld := acked[ks]
		switch {
		case inflight.delete:
			if ok && !bytes.Equal(v, old) {
				t.Fatalf("boundary %d: in-flight delete left %q (old %q)", k, v, old)
			}
			if !ok {
				expected-- // tombstone reached the platter before the crash
			}
		case !ok:
			if hadOld {
				t.Fatalf("boundary %d: in-flight op erased acked value of %x", k, ks)
			}
		case bytes.Equal(v, inflight.val):
			if !hadOld {
				expected++ // fully-applied unacked put of a fresh key
			}
		case hadOld && bytes.Equal(v, old):
			// old value intact
		default:
			t.Fatalf("boundary %d: in-flight key %x half-visible: %q (old %q, new %q)",
				k, ks, v, old, inflight.val)
		}
	}
	for ks, want := range acked {
		if inflight != nil && ks == string(inflight.key) {
			continue // judged above, either old or new complete value
		}
		v, ok, err := d.Get([]byte(ks))
		if err != nil {
			t.Fatalf("boundary %d: acked key %x unreadable after recovery: %v", k, ks, err)
		}
		if !ok {
			t.Fatalf("boundary %d: acknowledged write of %x lost (report %s)", k, ks, rep)
		}
		if !bytes.Equal(v, want) {
			t.Fatalf("boundary %d: acked key %x = %q, want %q", k, ks, v, want)
		}
	}
	if rep.LiveKeys != expected {
		t.Fatalf("boundary %d: %d live keys after recovery, want %d (report %s)", k, rep.LiveKeys, expected, rep)
	}
	return rep
}

// matrixBoundaries probes the healthy workload for its total boundary
// count, optionally bounded (strided) by SPILL_CRASH_BOUNDARIES for the
// make crash-matrix smoke.
func matrixBoundaries(t *testing.T, ops []crashOp) []int {
	t.Helper()
	probe := fault.NewDiskInjector(fault.NeverCrash())
	acked, inflight := runCrashWorkload(t, t.TempDir(), probe, ops)
	if inflight != nil || len(acked) == 0 {
		t.Fatalf("probe run failed: inflight=%v acked=%d", inflight, len(acked))
	}
	total := probe.Boundaries()
	if total < matrixOps {
		t.Fatalf("suspiciously few boundaries: %d", total)
	}
	limit := total
	if s := os.Getenv("SPILL_CRASH_BOUNDARIES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad SPILL_CRASH_BOUNDARIES=%q", s)
		}
		if n < limit {
			limit = n
		}
	}
	ks := make([]int, 0, limit)
	for i := 0; i < limit; i++ {
		ks = append(ks, i*total/limit) // stride to cover the whole run
	}
	return ks
}

// TestCrashMatrix replays the same seeded workload, crashing at every
// write/flush boundary (with a varying torn-write length), recovering,
// and asserting that no acknowledged write is lost and no
// unacknowledged write is half-visible.
func TestCrashMatrix(t *testing.T) {
	ops := crashWorkload(matrixSeed, matrixOps)
	boundaries := matrixBoundaries(t, ops)
	root := t.TempDir()
	for _, k := range boundaries {
		dir := filepath.Join(root, fmt.Sprintf("b%04d", k))
		shim := fault.NewDiskInjector(fault.DiskFault{
			CrashAtBoundary: k,
			TornBytes:       k % 29, // sweep torn-prefix lengths across the matrix
			FlipWrite:       -1,
		})
		acked, inflight := runCrashWorkload(t, dir, shim, ops)
		if !shim.Crashed() {
			t.Fatalf("boundary %d never reached (total %d)", k, shim.Boundaries())
		}
		verifyRecovery(t, k, dir, acked, inflight)
		os.RemoveAll(dir) // keep the matrix's disk footprint flat
	}
}

// TestBitFlipQuarantined injects silent single-bit corruption into a
// mid-run write, completes the workload healthy, and asserts fsck
// detects it via checksums and recovery quarantines without collateral
// damage: every key resolves to a complete, previously-acknowledged
// value (or is absent) — never a mangled one.
func TestBitFlipQuarantined(t *testing.T) {
	ops := crashWorkload(matrixSeed, matrixOps)
	for _, flip := range []int{3, 17, 40} {
		dir := t.TempDir()
		shim := fault.NewDiskInjector(fault.DiskFault{
			CrashAtBoundary: -1,
			FlipWrite:       flip,
			FlipByte:        9, // lands in seq/length bytes for records, body for hints
			FlipBit:         3,
		})
		// history holds every value each key ever acknowledged.
		history := map[string][][]byte{}
		d, _, err := spill.Open(spill.Options{Dir: dir, SegmentBytes: matrixSeg, Shim: shim})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if op.delete {
				if err := d.Delete(op.key); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err := d.Put(op.key, op.val); err != nil {
				t.Fatal(err)
			}
			history[string(op.key)] = append(history[string(op.key)], op.val)
		}
		d.Close()

		rep, err := spill.Fsck(dir)
		if err != nil {
			t.Fatal(err)
		}
		// The flip may land in a hint file (which only degrades recovery
		// speed); flips inside a segment must be detected.
		d2, rep2, err := spill.Open(spill.Options{Dir: dir})
		if err != nil {
			t.Fatalf("flip %d: recovery failed: %v", flip, err)
		}
		// The flip landed either in a record (the full-scan fsck must
		// quarantine it) or in a hint blob (fsck sees clean segments but
		// one fewer valid hint). It must never vanish entirely.
		if rep.Clean() && rep.HintLoads == rep.Segments-1 {
			t.Fatalf("flip %d went undetected: fsck=%s open=%s", flip, rep, rep2)
		}
		for ks, vs := range history {
			v, ok, err := d2.Get([]byte(ks))
			if err != nil {
				t.Fatalf("flip %d: key %x unreadable: %v", flip, ks, err)
			}
			if !ok {
				continue // quarantined or deleted — acceptable for corruption
			}
			legal := false
			for _, h := range vs {
				if bytes.Equal(v, h) {
					legal = true
					break
				}
			}
			if !legal {
				t.Fatalf("flip %d: key %x recovered to a never-acknowledged value %q", flip, ks, v)
			}
		}
		d2.Close()
	}
}

// matrixRow renders one boundary's recovery outcome as a table line:
// the recovered keydir fingerprint plus the fsck counters. Everything
// in it must be a pure function of (seed, boundary).
func matrixRow(t *testing.T, k int, ops []crashOp, root string) string {
	dir := filepath.Join(root, fmt.Sprintf("row%04d", k))
	shim := fault.NewDiskInjector(fault.DiskFault{CrashAtBoundary: k, TornBytes: k % 29, FlipWrite: -1})
	acked, _ := runCrashWorkload(t, dir, shim, ops)
	d, rep, err := spill.Open(spill.Options{Dir: dir})
	if err != nil {
		t.Errorf("boundary %d: %v", k, err)
		return ""
	}
	defer d.Close()
	defer os.RemoveAll(dir)
	sum := sha256.Sum256(d.KeydirDump())
	return fmt.Sprintf("k=%03d acked=%02d live=%02d scanned=%02d torn=%03d quarantined=%d keydir=%x",
		k, len(acked), rep.LiveKeys, rep.RecordsScanned, rep.TornBytesTruncated, rep.QuarantinedRecords, sum[:8])
}

// TestRecoveryDeterministic pins the recovery-determinism contract:
// same seed + same crash boundary ⇒ byte-identical recovered keydir and
// byte-identical result tables, at any parallelism.
func TestRecoveryDeterministic(t *testing.T) {
	ops := crashWorkload(matrixSeed, matrixOps)
	boundaries := []int{0, 7, 19, 33, 51, 64, 77, 90}
	table := func(workers int) string {
		rows := make([]string, len(boundaries))
		root := t.TempDir()
		par.ForEach(len(boundaries), workers, func(i int) {
			rows[i] = matrixRow(t, boundaries[i], ops, root)
		})
		var b bytes.Buffer
		for _, r := range rows {
			fmt.Fprintln(&b, r)
		}
		return b.String()
	}
	serial := table(1)
	if again := table(1); again != serial {
		t.Fatalf("recovery not deterministic across reruns:\n%s\nvs\n%s", serial, again)
	}
	if wide := table(8); wide != serial {
		t.Fatalf("recovery table differs at parallel=8:\n%s\nvs\n%s", serial, wide)
	}
}

// The group-commit crash matrix: groupWriters goroutines append to
// disjoint keys under one shared mutex and acknowledge only after
// SyncThrough, called outside it — the way a server takes fsync off its
// request lock. Each round is an append phase (every writer appends one
// or two records, contending for the mutex) followed by a commit phase
// (every writer calls SyncThrough concurrently, so one leader fsyncs the
// whole round). Records have one size, so the boundary layout is the
// same on every run whatever the interleaving: a crash boundary names
// the same write or fsync each time.
const (
	groupWriters = 4
	groupKeys    = 3 // per writer
	groupRounds  = 12
	groupSeg     = 600 // bytes; a rotation every few rounds
)

func groupKey(w, k int) []byte      { return []byte(fmt.Sprintf("w%d-k%d", w, k)) }
func groupVal(w, k, ver int) []byte { return []byte(fmt.Sprintf("w%d-k%d-v%04d", w, k, ver)) }

// groupAppends is how many records writer w appends in round r.
func groupAppends(w, r int) int { return 1 + (w+r)%2 }

// groupWriter is one writer and its model: for each key, the newest
// version written or in flight, and the newest acknowledged.
type groupWriter struct {
	id           int
	seq          uint64 // Seq after this round's last append
	round        []int  // keys appended this round
	tried, acked [groupKeys]int
	err          error
}

func (g *groupWriter) appendRound(d *spill.Dir, mu *sync.Mutex, r int) {
	g.round = g.round[:0]
	for i := 0; i < groupAppends(g.id, r); i++ {
		k := (2*r + i) % groupKeys
		g.tried[k]++
		mu.Lock()
		err := d.Put(groupKey(g.id, k), groupVal(g.id, k, g.tried[k]))
		g.seq = d.Seq()
		mu.Unlock()
		if err != nil {
			g.err = err
			return
		}
		g.round = append(g.round, k)
	}
}

func (g *groupWriter) commitRound(d *spill.Dir) {
	if g.err != nil {
		return
	}
	if g.err = d.SyncThrough(g.seq); g.err != nil {
		return
	}
	for _, k := range g.round {
		g.acked[k] = g.tried[k]
	}
}

// runGroupWorkload runs the rounds against a fresh deferred-sync dir
// under shim until the first error, and returns the writers' models.
func runGroupWorkload(t *testing.T, dir string, shim spill.Shim) []*groupWriter {
	t.Helper()
	d, _, err := spill.Open(spill.Options{Dir: dir, SegmentBytes: groupSeg, GroupCommit: true, Shim: shim})
	if err != nil {
		t.Fatalf("open under shim: %v", err)
	}
	defer d.Close()
	ws := make([]*groupWriter, groupWriters)
	for i := range ws {
		ws[i] = &groupWriter{id: i}
	}
	phase := func(fn func(g *groupWriter)) (failed bool) {
		var wg sync.WaitGroup
		for _, g := range ws {
			wg.Add(1)
			go func() { defer wg.Done(); fn(g) }()
		}
		wg.Wait()
		for _, g := range ws {
			failed = failed || g.err != nil
		}
		return failed
	}
	var mu sync.Mutex
	for r := 0; r < groupRounds; r++ {
		phase(func(g *groupWriter) { g.appendRound(d, &mu, r) })
		if phase(func(g *groupWriter) { g.commitRound(d) }) {
			break
		}
	}
	return ws
}

// verifyGroupRecovery recovers dir and checks every key: it holds its
// last acknowledged version or a later one that was written or in
// flight — never an older value, never a torn one — and a key with an
// acknowledged version is never absent.
func verifyGroupRecovery(t *testing.T, k int, dir string, ws []*groupWriter) {
	t.Helper()
	d, rep, err := spill.Open(spill.Options{Dir: dir})
	if err != nil {
		t.Fatalf("boundary %d: recovery failed: %v", k, err)
	}
	defer d.Close()
	for _, g := range ws {
		for key := 0; key < groupKeys; key++ {
			v, ok, err := d.Get(groupKey(g.id, key))
			if err != nil {
				t.Fatalf("boundary %d: key %s unreadable: %v", k, groupKey(g.id, key), err)
			}
			if !ok {
				if g.acked[key] > 0 {
					t.Fatalf("boundary %d: acknowledged v%d of %s lost (report %s)", k, g.acked[key], groupKey(g.id, key), rep)
				}
				continue
			}
			ver := 0
			for cand := g.acked[key]; cand <= g.tried[key]; cand++ {
				if bytes.Equal(v, groupVal(g.id, key, cand)) {
					ver = cand
				}
			}
			if ver == 0 {
				t.Fatalf("boundary %d: %s = %q, want a version in [v%d, v%d]",
					k, groupKey(g.id, key), v, max(g.acked[key], 1), g.tried[key])
			}
		}
	}
}

// kindShim records each boundary's kind and file type, failing nothing.
type kindShim struct {
	mu    sync.Mutex
	kinds []string
}

func (s *kindShim) note(kind, name string) {
	s.mu.Lock()
	s.kinds = append(s.kinds, kind+" "+filepath.Ext(name))
	s.mu.Unlock()
}

func (s *kindShim) Write(name string, _ int64, p []byte) ([]byte, error) {
	s.note("write", name)
	return p, nil
}

func (s *kindShim) Sync(name string) error {
	s.note("sync", name)
	return nil
}

// TestGroupCommitCrashMatrix sweeps crash boundaries over the concurrent
// group-commit workload (strided by SPILL_CRASH_BOUNDARIES, as
// TestCrashMatrix is), always including the first round's group fsync
// and the append just before it, and checks every recovery.
func TestGroupCommitCrashMatrix(t *testing.T) {
	probe := &kindShim{}
	for _, g := range runGroupWorkload(t, t.TempDir(), probe) {
		if g.err != nil {
			t.Fatalf("probe run failed: %v", g.err)
		}
	}
	writes, syncs := 0, 0
	for _, k := range probe.kinds {
		switch k {
		case "write .seg":
			writes++
		case "sync .seg":
			syncs++
		}
	}
	if writes == 0 || syncs >= writes {
		t.Fatalf("probe: %d segment fsyncs for %d appends; group commit should share them", syncs, writes)
	}
	groupSync := 0 // the first round's appends come first, then its one fsync
	for w := 0; w < groupWriters; w++ {
		groupSync += groupAppends(w, 0)
	}
	if probe.kinds[groupSync] != "sync .seg" || probe.kinds[groupSync-1] != "write .seg" {
		t.Fatalf("probe boundaries %d..%d = %q, want an append then the round's fsync",
			groupSync-1, groupSync, probe.kinds[groupSync-1:groupSync+1])
	}
	total := len(probe.kinds)
	limit := total
	if s := os.Getenv("SPILL_CRASH_BOUNDARIES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad SPILL_CRASH_BOUNDARIES=%q", s)
		}
		limit = min(limit, n)
	}
	boundaries := []int{groupSync - 1, groupSync}
	for i := 0; i < limit; i++ {
		boundaries = append(boundaries, i*total/limit)
	}

	root := t.TempDir()
	for _, k := range boundaries {
		dir := filepath.Join(root, fmt.Sprintf("g%04d", k))
		shim := fault.NewDiskInjector(fault.DiskFault{CrashAtBoundary: k, TornBytes: k % 29, FlipWrite: -1})
		ws := runGroupWorkload(t, dir, shim)
		if !shim.Crashed() {
			t.Fatalf("boundary %d never reached (total %d)", k, shim.Boundaries())
		}
		if k <= groupSync {
			// The first round's fsync never completed: nothing may be
			// acknowledged.
			for _, g := range ws {
				if g.acked != [groupKeys]int{} {
					t.Fatalf("boundary %d: writer %d acknowledged %v before any fsync", k, g.id, g.acked)
				}
			}
		}
		verifyGroupRecovery(t, k, dir, ws)
		os.RemoveAll(dir)
	}
}
