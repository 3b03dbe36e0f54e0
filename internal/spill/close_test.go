package spill

import (
	"errors"
	"testing"
)

var errDeviceDead = errors.New("spill test: device dead")

// TestCloseIdempotent pins the documented contract: Close may be called
// any number of times; only the first does work, the rest are no-ops
// returning nil. This is the regression test for the cxlserve teardown
// bug where a deferred Close fired after the drain path's explicit one.
func TestCloseIdempotent(t *testing.T) {
	d, _, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Rotate once so sealed readers exist and must be closed exactly once.
	d.opts.SegmentBytes = 1
	if err := d.Put([]byte("k2"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().Segments; got < 2 {
		t.Fatalf("expected a rotation, got %d segment(s)", got)
	}

	if err := d.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := d.Close(); err != nil {
			t.Fatalf("Close #%d after Close: %v (contract: idempotent no-op)", i+2, err)
		}
	}
}

// TestCloseIdempotentAfterFailure covers the sticky-failure path: a Dir
// whose device died still closes cleanly and repeatedly.
func TestCloseIdempotentAfterFailure(t *testing.T) {
	d, _, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	d.fail(errDeviceDead)
	if err := d.Close(); err != nil {
		t.Fatalf("Close of failed dir: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close of failed dir: %v", err)
	}
}
