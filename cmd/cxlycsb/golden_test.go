package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// -update rewrites testdata/*.golden from the live binary.
var update = flag.Bool("update", false, "rewrite the committed golden outputs")

// goldenRun is one pinned invocation: Hot-Promote YCSB-A at 8000 ops
// plus extra flags. stdout is compared byte for byte; the -trace and
// -metrics files (when traced) by SHA-256, since the trace is ~1 MB.
type goldenRun struct {
	name   string
	extra  []string
	traced bool
}

var goldenRuns = []goldenRun{
	{name: "single", traced: true},
	{name: "single-degraded", extra: []string{"-faults", "examples/degrade-cxl.json"}},
	{name: "cluster", extra: []string{"-nodes", "2", "-shards", "1", "-faults", "examples/degrade-cxl.json"}, traced: true},
}

// TestGolden pins cxlycsb's stdout, trace and metrics for single-node
// and two-node cluster runs, healthy and degraded. The cluster run is
// repeated on two shards and must match the same goldens: shards change
// wall-clock time only. Regenerate after an intentional output change
// with
//
//	go test ./cmd/cxlycsb -run TestGolden -update
//
// The goldens are recorded on linux/amd64: Go may fuse multiply-add
// into FMA instructions on other architectures, changing low-order bits.
func TestGolden(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("goldens are pinned on linux/amd64; %s/%s may fuse multiply-add", runtime.GOOS, runtime.GOARCH)
	}
	bin := filepath.Join(t.TempDir(), "cxlycsb")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	runs := goldenRuns
	if !*update {
		sharded := goldenRuns[2]
		sharded.name = "cluster-shards2"
		sharded.extra = []string{"-nodes", "2", "-shards", "2", "-faults", "examples/degrade-cxl.json"}
		runs = append(runs[:len(runs):len(runs)], sharded)
	}
	for _, gr := range runs {
		t.Run(gr.name, func(t *testing.T) {
			t.Parallel()
			golden := "testdata/" + strings.TrimSuffix(gr.name, "-shards2") + ".golden"
			got := gr.run(t, bin)
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("cxlycsb %v differs from %s:\n--- got\n%s--- want\n%s", gr.extra, golden, got, want)
			}
		})
	}
}

// run executes the invocation from the repository root (so the schedule
// path printed in [FAULT] lines is stable) and returns stdout followed,
// when traced, by the digest lines of the trace and metrics files.
func (gr goldenRun) run(t *testing.T, bin string) []byte {
	dir := t.TempDir()
	args := append([]string{"-config", "Hot-Promote", "-workload", "A", "-ops", "8000"}, gr.extra...)
	if gr.traced {
		args = append(args, "-trace", filepath.Join(dir, "trace.json"), "-metrics", filepath.Join(dir, "metrics.prom"))
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = filepath.Join("..", "..")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("cxlycsb %v: %v\n%s", args, err, stderr.String())
	}
	if gr.traced {
		for _, f := range []string{"trace.json", "metrics.prom"} {
			b, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatal(err)
			}
			out = fmt.Appendf(out, "sha256 %s %x\n", f, sha256.Sum256(b))
		}
	}
	return out
}
