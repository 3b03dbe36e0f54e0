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

// goldens maps each committed golden to the cxlmlc arguments that print
// it. cxl-2-1 is also cxlfit's pinned input.
var goldens = map[string][]string{
	"testdata/cxl-2-1.golden":         {"-path", "CXL", "-mix", "2:1"},
	"testdata/mmem-1-0-random.golden": {"-path", "MMEM", "-mix", "1:0", "-pattern", "random"},
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
	bin := filepath.Join(t.TempDir(), "cxlmlc")
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
		t.Fatalf("cxlmlc %v panicked:\n%s", args, stderr.Bytes())
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

// TestGolden pins cxlmlc's CSV, byte for byte, for one sequential and one
// random curve. Regenerate after an intentional output change with
//
//	go test ./cmd/cxlmlc -run TestGolden -update
func TestGolden(t *testing.T) {
	pinnedPlatform(t)
	bin := buildBinary(t)
	for golden, args := range goldens {
		got, code := run(t, bin, args...)
		if code != 0 {
			t.Fatalf("cxlmlc %v exited %d", args, code)
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
			t.Errorf("cxlmlc %v differs from %s:\ngot:\n%s", args, golden, got)
		}
	}
}

// TestUsageErrors: a bad path, mix, pattern or step count exits 2 before
// anything reaches stdout.
func TestUsageErrors(t *testing.T) {
	bin := buildBinary(t)
	for _, args := range [][]string{
		{"-path", "PMEM"},
		{"-mix", "3:1"},
		{"-pattern", "strided"},
		{"-steps", "1"},
		{"-steps", "-1"},
	} {
		if out, code := run(t, bin, args...); code != 2 || len(out) > 0 {
			t.Errorf("cxlmlc %v: exit %d with %d stdout bytes, want exit 2 and none", args, code, len(out))
		}
	}
}
