package spill_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cxlsim/internal/obs"
	"cxlsim/internal/spill"
)

func key(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

func val(i, ver int) []byte {
	// Fixed width: several tests index records as len(file)/count.
	return []byte(fmt.Sprintf("value-%04d-v%04d", i, ver))
}

func mustOpen(t *testing.T, opts spill.Options) (*spill.Dir, *spill.RecoveryReport) {
	t.Helper()
	d, rep, err := spill.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return d, rep
}

func TestRecordRoundTrip(t *testing.T) {
	r := spill.Record{Seq: 42, Key: []byte("k"), Val: []byte("hello"), Tombstone: false}
	buf := spill.EncodeRecord(r)
	got, n, err := spill.DecodeRecord(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if got.Seq != 42 || string(got.Key) != "k" || string(got.Val) != "hello" || got.Tombstone {
		t.Fatalf("round trip mangled: %+v", got)
	}
	// Every single-bit flip must be detected.
	for byteIdx := 0; byteIdx < len(buf); byteIdx++ {
		mut := append([]byte(nil), buf...)
		mut[byteIdx] ^= 0x10
		if _, _, err := spill.DecodeRecord(mut); err == nil {
			// A flip inside the length fields can still fail; a clean
			// decode anywhere is a checksum hole.
			t.Fatalf("bit flip at byte %d went undetected", byteIdx)
		}
	}
	// Truncations never decode.
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := spill.DecodeRecord(buf[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", cut)
		}
	}
}

func TestPutGetDeleteAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, rep := mustOpen(t, spill.Options{Dir: dir})
	if rep.Segments != 1 || rep.LiveKeys != 0 {
		t.Fatalf("fresh open: %+v", rep)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := d.Put(key(i), val(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite some, delete some.
	for i := 0; i < 10; i++ {
		if err := d.Put(key(i), val(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 90; i < n; i++ {
		if err := d.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(d *spill.Dir, phase string) {
		t.Helper()
		for i := 0; i < 90; i++ {
			want := val(i, 0)
			if i < 10 {
				want = val(i, 1)
			}
			v, ok, err := d.Get(key(i))
			if err != nil || !ok || !bytes.Equal(v, want) {
				t.Fatalf("%s: key %d: ok=%v err=%v v=%q want %q", phase, i, ok, err, v, want)
			}
		}
		for i := 90; i < n; i++ {
			if _, ok, _ := d.Get(key(i)); ok {
				t.Fatalf("%s: deleted key %d still live", phase, i)
			}
		}
	}
	check(d, "before close")
	dump := d.KeydirDump()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, rep2 := mustOpen(t, spill.Options{Dir: dir})
	defer d2.Close()
	if !rep2.Clean() {
		t.Fatalf("clean shutdown recovered dirty: %s", rep2)
	}
	if rep2.LiveKeys != 90 {
		t.Fatalf("recovered %d live keys, want 90", rep2.LiveKeys)
	}
	check(d2, "after reopen")
	if !bytes.Equal(dump, d2.KeydirDump()) {
		t.Fatal("keydir dump changed across clean reopen")
	}
}

func TestRotationWritesHintsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations.
	d, _ := mustOpen(t, spill.Options{Dir: dir, SegmentBytes: 512})
	const n = 200
	for i := 0; i < n; i++ {
		if err := d.Put(key(i), val(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotations, got %+v", st)
	}
	dump := d.KeydirDump()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Hints must exist for sealed segments and carry the recovery.
	hints, _ := filepath.Glob(filepath.Join(dir, "*.hnt"))
	if len(hints) == 0 {
		t.Fatal("no hint files after rotations")
	}
	d2, rep := mustOpen(t, spill.Options{Dir: dir})
	defer d2.Close()
	if rep.HintLoads == 0 || rep.HintEntries == 0 {
		t.Fatalf("recovery ignored hints: %s", rep)
	}
	if !bytes.Equal(dump, d2.KeydirDump()) {
		t.Fatal("hint-driven recovery diverged from pre-close keydir")
	}
	// A corrupt hint falls back to scanning, with identical results.
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	hb, err := os.ReadFile(hints[0])
	if err != nil {
		t.Fatal(err)
	}
	hb[len(hb)/2] ^= 0xFF
	if err := os.WriteFile(hints[0], hb, 0o644); err != nil {
		t.Fatal(err)
	}
	d3, rep3 := mustOpen(t, spill.Options{Dir: dir})
	defer d3.Close()
	if rep3.HintLoads != rep.HintLoads-1 {
		t.Fatalf("corrupt hint still loaded: %s", rep3)
	}
	if !bytes.Equal(dump, d3.KeydirDump()) {
		t.Fatal("scan fallback diverged from hint recovery")
	}
}

func TestFsckDetectsCorruptionAndRecoveryQuarantines(t *testing.T) {
	dir := t.TempDir()
	d, _ := mustOpen(t, spill.Options{Dir: dir})
	for i := 0; i < 50; i++ {
		if err := d.Put(key(i), val(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "00000001.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recSize := len(data) / 50
	// Flip one bit in the middle of record 10's value.
	data[10*recSize+recSize/2] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Read-only fsck: detects, does not modify.
	rep, err := spill.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || rep.QuarantinedRecords != 1 {
		t.Fatalf("fsck missed the corruption: %s", rep)
	}
	after, _ := os.ReadFile(seg)
	if !bytes.Equal(data, after) {
		t.Fatal("read-only fsck modified the segment")
	}
	if _, err := os.Stat(filepath.Join(dir, spill.QuarantineDir)); !os.IsNotExist(err) {
		t.Fatal("read-only fsck wrote quarantine files")
	}

	// Repairing recovery: quarantines the bad record, keeps the rest.
	d2, rep2 := mustOpen(t, spill.Options{Dir: dir})
	defer d2.Close()
	if rep2.QuarantinedRecords != 1 {
		t.Fatalf("recovery quarantined %d records, want 1: %s", rep2.QuarantinedRecords, rep2)
	}
	if rep2.LiveKeys != 49 {
		t.Fatalf("recovered %d keys, want 49 (one quarantined): %s", rep2.LiveKeys, rep2)
	}
	bad, err := filepath.Glob(filepath.Join(dir, spill.QuarantineDir, "*.bad"))
	if err != nil || len(bad) != 1 {
		t.Fatalf("quarantine files: %v err=%v", bad, err)
	}
	// The corrupt key is gone; its neighbors survive with full values.
	if _, ok, _ := d2.Get(key(10)); ok {
		t.Fatal("corrupt record's key still resolves")
	}
	for _, i := range []int{9, 11} {
		v, ok, err := d2.Get(key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i, 0)) {
			t.Fatalf("neighbor key %d damaged: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	d, _ := mustOpen(t, spill.Options{Dir: dir})
	for i := 0; i < 20; i++ {
		if err := d.Put(key(i), val(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "00000001.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half.
	recSize := len(data) / 20
	torn := data[:len(data)-recSize/2]
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	d2, rep := mustOpen(t, spill.Options{Dir: dir})
	if rep.TornBytesTruncated == 0 || rep.QuarantinedRecords != 0 {
		t.Fatalf("torn tail not truncated: %s", rep)
	}
	if rep.LiveKeys != 19 {
		t.Fatalf("recovered %d keys, want 19: %s", rep.LiveKeys, rep)
	}
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(19*recSize) {
		t.Fatalf("segment not truncated to record boundary: %d", fi.Size())
	}
	// Appends after truncation extend cleanly.
	if err := d2.Put(key(19), val(19, 7)); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, rep3 := mustOpen(t, spill.Options{Dir: dir})
	defer d3.Close()
	if !rep3.Clean() || rep3.LiveKeys != 20 {
		t.Fatalf("post-truncation append did not recover: %s", rep3)
	}
	v, ok, _ := d3.Get(key(19))
	if !ok || !bytes.Equal(v, val(19, 7)) {
		t.Fatal("re-written tail key wrong after second recovery")
	}
}

func TestInstrumentPublishesRecoveryAndIO(t *testing.T) {
	dir := t.TempDir()
	d, _ := mustOpen(t, spill.Options{Dir: dir})
	for i := 0; i < 5; i++ {
		if err := d.Put(key(i), val(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	d2, _ := mustOpen(t, spill.Options{Dir: dir})
	defer d2.Close()
	reg := obs.NewRegistry()
	d2.Instrument(reg)
	if err := d2.Put(key(5), val(5, 0)); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		obs.MetricSpillRecordsWritten:  1,
		obs.MetricSpillRecoveryScanned: 5,
		obs.MetricSpillLiveKeys:        6,
	}
	found := map[string]float64{}
	for _, fam := range reg.Snapshot().Families {
		if len(fam.Metrics) == 1 {
			found[fam.Name] = fam.Metrics[0].Value
		}
	}
	for name, v := range want {
		if found[name] != v {
			t.Errorf("%s = %v, want %v", name, found[name], v)
		}
	}
}

// TestSyncThroughSemantics pins both sync policies. By default every
// Put fsyncs before it returns, so SyncThrough has nothing left to do.
// With GroupCommit no Put fsyncs; one SyncThrough fsync covers
// everything appended before it, a covered seq returns without another
// fsync, an unappended seq is an error, and a closed Dir still answers
// for what Close made durable.
func TestSyncThroughSemantics(t *testing.T) {
	def, _ := mustOpen(t, spill.Options{Dir: t.TempDir()})
	defer def.Close()
	const n = 5
	for i := 0; i < n; i++ {
		if err := def.Put(key(i), val(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	st := def.Stats()
	if st.RecordsWritten != n || st.Fsyncs < st.RecordsWritten {
		t.Fatalf("default puts: %d records, %d fsyncs; want every put fsynced", st.RecordsWritten, st.Fsyncs)
	}
	if err := def.SyncThrough(def.Seq()); err != nil {
		t.Fatal(err)
	}
	if got := def.Stats().Fsyncs; got != st.Fsyncs {
		t.Fatalf("SyncThrough after durable puts fsynced again: %d → %d", st.Fsyncs, got)
	}

	d, _ := mustOpen(t, spill.Options{Dir: t.TempDir(), GroupCommit: true})
	var seqs []uint64
	for i := 0; i < 3; i++ {
		if err := d.Put(key(i), val(i, 0)); err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, d.Seq())
	}
	if st := d.Stats(); st.RecordsWritten != 3 || st.Fsyncs != 0 {
		t.Fatalf("group-commit puts: %d records, %d fsyncs; want 3 and 0", st.RecordsWritten, st.Fsyncs)
	}
	if err := d.SyncThrough(seqs[1]); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().Fsyncs; got != 1 {
		t.Fatalf("fsyncs after first SyncThrough = %d, want 1", got)
	}
	// The fsync covered everything appended, seqs[2] included.
	if err := d.SyncThrough(seqs[2]); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().Fsyncs; got != 1 {
		t.Fatalf("covered SyncThrough fsynced again: %d", got)
	}
	if err := d.SyncThrough(seqs[2] + 1); err == nil {
		t.Fatal("SyncThrough past the newest append succeeded")
	}
	if err := d.Put(key(3), val(3, 0)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.SyncThrough(d.Seq()); err != nil {
		t.Fatalf("SyncThrough of a record Close made durable: %v", err)
	}
}

// TestSyncThroughConcurrentWriters runs free-running writers that append
// under one mutex and commit outside it (run under -race): every commit
// succeeds, no record costs more than one fsync (rotations add a segment
// and a hint fsync each), and every committed value recovers.
func TestSyncThroughConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	d, _ := mustOpen(t, spill.Options{Dir: dir, SegmentBytes: 4 << 10, GroupCommit: true})
	const writers, perWriter = 4, 200
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := w*perWriter + i
				mu.Lock()
				err := d.Put(key(k), val(k, 0))
				seq := d.Seq()
				mu.Unlock()
				if err == nil {
					err = d.SyncThrough(seq)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := d.Stats()
	if st.RecordsWritten != writers*perWriter || st.Fsyncs == 0 || st.Fsyncs > st.RecordsWritten+2*uint64(st.Segments) {
		t.Fatalf("records=%d fsyncs=%d segments=%d", st.RecordsWritten, st.Fsyncs, st.Segments)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, rep := mustOpen(t, spill.Options{Dir: dir})
	defer d2.Close()
	if rep.LiveKeys != writers*perWriter {
		t.Fatalf("recovered %d keys, want %d", rep.LiveKeys, writers*perWriter)
	}
	for k := 0; k < writers*perWriter; k++ {
		if v, ok, err := d2.Get(key(k)); err != nil || !ok || !bytes.Equal(v, val(k, 0)) {
			t.Fatalf("key %d: %q ok=%v err=%v", k, v, ok, err)
		}
	}
}
