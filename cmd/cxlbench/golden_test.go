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
	"testing"
)

// -update rewrites testdata/*.golden from the live binary.
var update = flag.Bool("update", false, "rewrite the committed golden outputs")

const (
	golden         = "testdata/quick-all.golden"
	windowedGolden = "testdata/fig8-slo.golden"
	faultedGolden  = "testdata/fig5-faults.golden"
)

// faultedFig5Args runs Fig. 5's grid with its degraded pass.
var faultedFig5Args = []string{"-quick", "-faults", "../../examples/degrade-cxl.json", "fig5"}

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
	bin := filepath.Join(t.TempDir(), "cxlbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func runStdout(t *testing.T, bin string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("cxlbench %v: %v\n%s", args, err, stderr.String())
	}
	return out
}

// TestGolden pins `cxlbench -quick all` stdout, byte for byte, at
// -parallel 1 and at the default parallelism, the windowed fig8 stdout
// plus the SHA-256 of its -slo/-report HTML, and the faulted fig5
// stdout. Regenerate after an
// intentional output change with
//
//	go test ./cmd/cxlbench -run TestGolden -update
func TestGolden(t *testing.T) {
	pinnedPlatform(t)
	bin := buildBinary(t)

	if *update {
		for path, out := range map[string][]byte{
			golden:         runStdout(t, bin, "-quick", "all"),
			windowedGolden: windowedFig8(t, bin),
			faultedGolden:  runStdout(t, bin, faultedFig5Args...),
		} {
			if err := os.WriteFile(path, out, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s (%d bytes)", path, len(out))
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	wantWindowed, err := os.ReadFile(windowedGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := windowedFig8(t, bin); !bytes.Equal(got, wantWindowed) {
		t.Errorf("windowed fig8 differs from %s:\n%s", windowedGolden, firstDiff(got, wantWindowed))
	}
	wantFaulted, err := os.ReadFile(faultedGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := runStdout(t, bin, faultedFig5Args...); !bytes.Equal(got, wantFaulted) {
		t.Errorf("cxlbench %v differs from %s:\n%s", faultedFig5Args, faultedGolden, firstDiff(got, wantFaulted))
	}
	for _, args := range [][]string{
		{"-quick", "-parallel", "1", "all"},
		{"-quick", "all"},
	} {
		if got := runStdout(t, bin, args...); !bytes.Equal(got, want) {
			t.Errorf("cxlbench %v differs from %s:\n%s", args, golden, firstDiff(got, want))
		}
	}

	// The shard experiment alone, on four shards, must reproduce its
	// section of the golden: sharding changes wall-clock time only.
	section := goldenSection(t, want, "shard")
	if got := runStdout(t, bin, "-quick", "-shards", "4", "shard"); !bytes.Equal(got, section) {
		t.Errorf("cxlbench -quick -shards 4 shard differs from the golden's shard section:\n%s", firstDiff(got, section))
	}
}

// windowedFig8 runs fig8 with the kvstore SLO spec and an HTML report
// and returns its stdout followed by the report's SHA-256.
func windowedFig8(t *testing.T, bin string) []byte {
	t.Helper()
	html := filepath.Join(t.TempDir(), "report.html")
	out := runStdout(t, bin, "-quick", "-slo", "../../examples/slo/kvstore.json", "-report", html, "fig8")
	b, err := os.ReadFile(html)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Appendf(out, "sha256 report.html %x\n", sha256.Sum256(b))
}

// goldenSection cuts experiment id's block out of the full output: from
// its "== id:" header up to the next experiment's header.
func goldenSection(t *testing.T, all []byte, id string) []byte {
	t.Helper()
	start := bytes.Index(all, []byte("== "+id+": "))
	if start < 0 {
		t.Fatalf("no %q section in %s", id, golden)
	}
	end := len(all)
	if next := bytes.Index(all[start+1:], []byte("\n== ")); next >= 0 {
		end = start + 1 + next + 1
	}
	return all[start:end]
}

// firstDiff reports the first differing line of got vs want.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, gl, wl)
		}
	}
	return "(identical lines; lengths differ)"
}
