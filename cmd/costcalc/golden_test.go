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

// goldens maps each committed golden to the costcalc arguments that
// print it.
var goldens = map[string][]string{
	"testdata/paper.golden":  nil,
	"testdata/custom.golden": {"-rd", "12", "-rc", "7", "-c", "4", "-rt", "1.15", "-fixed", "0.02"},
	"testdata/sweep.golden":  {"-sweep"},
}

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
	bin := filepath.Join(t.TempDir(), "costcalc")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// run returns the binary's stdout and exit status. A Go panic also
// exits 2, so run fails the test on one.
func run(t *testing.T, bin string, args ...string) ([]byte, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if bytes.Contains(stderr.Bytes(), []byte("panic:")) {
		t.Fatalf("costcalc %v panicked:\n%s", args, stderr.Bytes())
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

// TestGolden pins costcalc's output, byte for byte, for the paper's
// worked example, a user parameter set and the C sweep. Regenerate
// after an intentional output change with
//
//	go test ./cmd/costcalc -run TestGolden -update
func TestGolden(t *testing.T) {
	pinnedPlatform(t)
	bin := buildBinary(t)
	for golden, args := range goldens {
		got, code := run(t, bin, args...)
		if code != 0 {
			t.Fatalf("costcalc %v exited %d", args, code)
		}
		if *update {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("costcalc %v differs from %s:\ngot:\n%s\nwant:\n%s", args, golden, got, want)
		}
	}
}

// TestUsageErrors: parameters the cost model rejects (Rc above Rd, a
// non-finite value) exit 2 with nothing on stdout.
func TestUsageErrors(t *testing.T) {
	bin := buildBinary(t)
	for _, args := range [][]string{
		{"-rc", "11"},
		{"-rd", "NaN"},
	} {
		if out, code := run(t, bin, args...); code != 2 || len(out) > 0 {
			t.Errorf("costcalc %v: exit %d with %d stdout bytes, want exit 2 and none", args, code, len(out))
		}
	}
}
