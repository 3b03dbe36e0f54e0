package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestErrorExitWritesProfiles: a run that fails after profiling starts
// (here, an unwritable -report path) must still exit 1 with complete,
// non-empty -cpuprofile and -memprofile files.
func TestErrorExitWritesProfiles(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	cmd := exec.Command(bin, "-quick", "-windows", "10", "-cpuprofile", cpu, "-memprofile", mem,
		"-report", filepath.Join(dir, "no", "such", "dir", "r.html"), "fig8")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit %v, want status 1\n%s", err, out)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty after the error exit", filepath.Base(path))
		}
	}
}
