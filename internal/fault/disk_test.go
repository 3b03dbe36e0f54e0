package fault

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDiskInjectorProbeCountsBoundaries checks the probe configuration
// counts every write and sync without failing anything.
func TestDiskInjectorProbeCountsBoundaries(t *testing.T) {
	d := NewDiskInjector(NeverCrash())
	for i := 0; i < 5; i++ {
		out, err := d.Write("seg", int64(i*4), []byte{1, 2, 3, 4})
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if !bytes.Equal(out, []byte{1, 2, 3, 4}) {
			t.Fatalf("write %d mutated: %x", i, out)
		}
		if err := d.Sync("seg"); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
	}
	if d.Boundaries() != 10 {
		t.Fatalf("boundaries = %d, want 10", d.Boundaries())
	}
	if d.Crashed() {
		t.Fatal("probe crashed")
	}
}

// TestDiskInjectorCrashOnWrite checks a crash landing on a write tears
// it to the configured prefix and kills every later op.
func TestDiskInjectorCrashOnWrite(t *testing.T) {
	d := NewDiskInjector(DiskFault{CrashAtBoundary: 2, TornBytes: 3, FlipWrite: -1})
	payload := []byte("abcdefgh")
	if _, err := d.Write("seg", 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync("seg"); err != nil {
		t.Fatal(err)
	}
	out, err := d.Write("seg", 8, payload) // boundary 2: the crash
	if err != ErrDiskCrashed {
		t.Fatalf("crash write err = %v", err)
	}
	if !bytes.Equal(out, []byte("abc")) {
		t.Fatalf("torn prefix = %q, want %q", out, "abc")
	}
	if !d.Crashed() {
		t.Fatal("not marked crashed")
	}
	if _, err := d.Write("seg", 16, payload); err != ErrDiskCrashed {
		t.Fatalf("post-crash write err = %v", err)
	}
	if err := d.Sync("seg"); err != ErrDiskCrashed {
		t.Fatalf("post-crash sync err = %v", err)
	}
}

// TestDiskInjectorCrashOnSyncTearsNothing checks a crash on a sync
// boundary leaves preceding writes fully persisted.
func TestDiskInjectorCrashOnSyncTearsNothing(t *testing.T) {
	d := NewDiskInjector(DiskFault{CrashAtBoundary: 1, TornBytes: 99, FlipWrite: -1})
	out, err := d.Write("seg", 0, []byte("abcd"))
	if err != nil || !bytes.Equal(out, []byte("abcd")) {
		t.Fatalf("write: %q, %v", out, err)
	}
	if err := d.Sync("seg"); err != ErrDiskCrashed {
		t.Fatalf("sync err = %v", err)
	}
}

// TestDiskInjectorBitFlip checks the silent-corruption mode flips
// exactly one bit of exactly one write, copies rather than mutates the
// caller's buffer, and still acknowledges the write.
func TestDiskInjectorBitFlip(t *testing.T) {
	d := NewDiskInjector(DiskFault{CrashAtBoundary: -1, FlipWrite: 1, FlipByte: 2, FlipBit: 4})
	orig := []byte("AAAA")
	if out, err := d.Write("seg", 0, orig); err != nil || !bytes.Equal(out, orig) {
		t.Fatalf("write 0: %q, %v", out, err)
	}
	out, err := d.Write("seg", 4, orig)
	if err != nil {
		t.Fatalf("flipped write must still ack: %v", err)
	}
	want := []byte{'A', 'A', 'A' ^ 0x10, 'A'}
	if !bytes.Equal(out, want) {
		t.Fatalf("flipped = %x, want %x", out, want)
	}
	if !bytes.Equal(orig, []byte("AAAA")) {
		t.Fatal("caller buffer mutated in place")
	}
	// Only that one write is touched.
	if out, _ := d.Write("seg", 8, orig); !bytes.Equal(out, orig) {
		t.Fatalf("write 2 mutated: %x", out)
	}
}

// TestDiskInjectorFlipByteClamped checks out-of-range flip offsets
// clamp into the buffer instead of panicking.
func TestDiskInjectorFlipByteClamped(t *testing.T) {
	d := NewDiskInjector(DiskFault{CrashAtBoundary: -1, FlipWrite: 0, FlipByte: 1000, FlipBit: 0})
	out, err := d.Write("seg", 0, []byte{0x00, 0x00})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte{0x00, 0x01}) {
		t.Fatalf("clamped flip = %x", out)
	}
}

// TestDiskInjectorConcurrent drives Write and Sync from several
// goroutines, as the spill tier's group commit does (run under -race):
// every call counts exactly one boundary, exactly one call fails at the
// crash boundary, and every call after it fails too.
func TestDiskInjectorConcurrent(t *testing.T) {
	const workers, perWorker, crashAt = 4, 50, 120
	d := NewDiskInjector(DiskFault{CrashAtBoundary: crashAt, TornBytes: 2, FlipWrite: -1})
	var wg sync.WaitGroup
	var failed atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var err error
				if (w+i)%3 == 0 {
					err = d.Sync("seg")
				} else {
					_, err = d.Write("seg", int64(i), []byte("abcd"))
				}
				if err != nil {
					failed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := d.Boundaries(); got != crashAt+1 {
		t.Fatalf("boundaries = %d, want %d (counting stops at the crash)", got, crashAt+1)
	}
	if !d.Crashed() {
		t.Fatal("crash boundary never fired")
	}
	if got, want := failed.Load(), int64(workers*perWorker-crashAt); got != want {
		t.Fatalf("%d calls failed, want %d (the crash and everything after it)", got, want)
	}
}
