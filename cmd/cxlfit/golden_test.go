package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// -update rewrites testdata/*.golden from the live binary.
var update = flag.Bool("update", false, "rewrite the committed golden outputs")

const (
	// sweep is cxlmlc's pinned `-path CXL -mix 2:1` CSV: feeding it on
	// stdin pins the documented `cxlmlc | cxlfit` pipe.
	sweep  = "../cxlmlc/testdata/cxl-2-1.golden"
	golden = "testdata/cxl-2-1-fit.golden"
)

// pinnedPlatform skips where the goldens cannot be byte-exact: they are
// recorded on linux/amd64, and Go may fuse multiply-add into FMA
// instructions on other architectures, which changes low-order bits.
func pinnedPlatform(t *testing.T) {
	t.Helper()
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("goldens are pinned on linux/amd64; %s/%s may fuse multiply-add", runtime.GOOS, runtime.GOARCH)
	}
}

// buildBinary compiles the real command into a temp dir.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cxlfit")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// run feeds stdin to the binary and returns its stdout and exit status.
// A Go panic also exits 2, so run fails the test on one.
func run(t *testing.T, bin string, stdin []byte, args ...string) ([]byte, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdin = bytes.NewReader(stdin)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if bytes.Contains(stderr.Bytes(), []byte("panic:")) {
		t.Fatalf("cxlfit %v panicked:\n%s", args, stderr.Bytes())
	}
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return out, exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return out, 0
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGolden pins the fit of cxlmlc's CXL 2:1 sweep, byte for byte.
// Regenerate after an intentional output change with
//
//	go test ./cmd/cxlfit -run TestGolden -update
func TestGolden(t *testing.T) {
	pinnedPlatform(t)
	got, code := run(t, buildBinary(t), readFile(t, sweep))
	if code != 0 {
		t.Fatalf("cxlfit < %s exited %d", sweep, code)
	}
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want := readFile(t, golden); !bytes.Equal(got, want) {
		t.Errorf("cxlfit < %s differs from %s:\ngot:\n%s\nwant:\n%s", sweep, golden, got, want)
	}
}

// TestErrors: a column index below 1 is a usage error (exit 2); a
// non-finite sample is bad input (exit 1). Neither prints a fit.
func TestErrors(t *testing.T) {
	bin := buildBinary(t)
	csv := readFile(t, sweep)
	for _, c := range []struct {
		args  []string
		extra string // rows appended to the sweep
		want  int
	}{
		{args: []string{"-bw-col", "0"}, want: 2},
		{args: []string{"-lat-col", "-1"}, want: 2},
		{extra: "x,x,x,1,NaN,100\n", want: 1},
		{extra: "x,x,x,1,5,Inf\n", want: 1},
	} {
		if out, code := run(t, bin, append(csv[:len(csv):len(csv)], c.extra...), c.args...); code != c.want || len(out) > 0 {
			t.Errorf("cxlfit %v with %q appended: exit %d with %d stdout bytes, want exit %d and none",
				c.args, c.extra, code, len(out), c.want)
		}
	}
}
