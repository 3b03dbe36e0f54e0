package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"testing/fstest"
	"time"
)

func TestMain(m *testing.M) {
	// Workloads re-execute the running binary for their child processes.
	if job := os.Getenv(childEnv); job != "" {
		os.Exit(runChild(job))
	}
	os.Exit(m.Run())
}

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesProgram checks BENCHMARK.json against the program: the
// same workloads, a unit for every metric that matches the one cxlperf
// prints, and names the benchmark contract accepts.
func TestSpecMatchesProgram(t *testing.T) {
	spec := testSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, cxlperf %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, cxlperf %q", i, w.Name, workloads[i].name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
		if got := unitOf(m.Name); got != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, cxlperf prints %q", m.Name, m.Unit, got)
		}
	}
}

// TestWorkloadsTiny runs both passes of every workload in tiny mode and
// checks that every metric BENCHMARK.json names is printed with its unit
// and that no output check failed, the Fig. 5 replay included.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := testSpec(t)
	var out bytes.Buffer
	if code := benchMain([]string{"-quick", "-seconds", "1", "-build", t.TempDir()}, &out); code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	printed := map[string]string{} // "workload metric" -> unit
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
		f := strings.Fields(last)
		if len(f) >= 4 {
			printed[f[0]+" "+f[1]] = f[3]
			printed[f[1]] = f[3]
		}
		if len(f) >= 3 && f[1] == "fail_ratio" && f[2] != "0" {
			t.Errorf("%s", last)
		}
	}
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			if u := printed[w.Name+" "+m.Name]; u != m.Unit {
				t.Errorf("%s %s printed with unit %q, want %q", w.Name, m.Name, u, m.Unit)
			}
		}
	}
	for _, m := range spec.PerLayer {
		if u := printed[m.Name]; u != m.Unit {
			t.Errorf("%s printed with unit %q, want %q", m.Name, u, m.Unit)
		}
	}
	var line struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	if !line.Correct || line.Failed != 0 {
		t.Errorf("correct=%v failed=%d of %d", line.Correct, line.Failed, line.Attempted)
	}
	want := len(spec.Workloads) * (len(spec.EndToEnd) + len(spec.PerLayer))
	if len(line.Metrics) != want {
		t.Errorf("result line has %d metrics, want %d", len(line.Metrics), want)
	}
}

// TestCorruptGoldenFails feeds a golden that disagrees with the output
// and requires the mismatch to count as a failed operation.
func TestCorruptGoldenFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ycsb-static grid")
	}
	e := &env{seed: 42, quick: true, out: io.Discard, tally: &tally{}, tr: newTracer()}
	_, _, digests, err := ycsbRep(nil, 0, true, e.seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	var golden strings.Builder
	for id, d := range digests {
		if id == "1:1/YCSB-A" {
			d = strings.Repeat("0", len(d))
		}
		golden.WriteString(id + " " + d + "\n")
	}
	e.goldens = fstest.MapFS{goldenName("ycsb-static", true, 42): {Data: []byte(golden.String())}}
	if err := ycsbTraced(e, samples{}); err != nil {
		t.Fatal(err)
	}
	if a, f := e.tally.attempted.Load(), e.tally.failed.Load(); a != 4 || f != 1 {
		t.Errorf("attempted %d failed %d, want 4 and 1", a, f)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.1, 10.2, 9.9, 9.8}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", base, []float64{10.3, 10.1, 10.2, 10, 10.4}, "lower", "same"},
		{"slower beyond bound", base, []float64{11.5, 11.6, 11.4, 11.7, 11.5}, "lower", "worse"},
		{"faster beyond bound", base, []float64{8.5, 8.6, 8.4, 8.7, 8.5}, "lower", "better"},
		{"higher is better", base, []float64{11.5, 11.6, 11.4, 11.7, 11.5}, "higher", "better"},
		{"spread over bound", base, []float64{8, 12, 10, 9, 11.5}, "lower", "unresolved"},
		{"wide but every run better", base, []float64{7, 9, 8, 7.5, 9.5}, "lower", "better"},
		{"wide but every run worse", base, []float64{11, 14, 12, 11.5, 13.5}, "lower", "worse"},
	} {
		a, b := side{values: c.a, basis: c.a}, side{values: c.b, basis: c.b}
		if got := verdict(a, b, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median %v", m)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 3 samples %v %v, want 1 3", q1, q3)
	}
}

// TestSelfTime checks that a span's self time excludes the union of its
// children, including children that overlap.
func TestSelfTime(t *testing.T) {
	tr := &tracer{t0: time.Now(), spans: []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
	}}
	spans := tr.finish()
	if got := spans[0].Self; got != 100-50-10 {
		t.Errorf("root self %d, want 40", got)
	}
	if got := spans[1].Self; got != 30 {
		t.Errorf("leaf self %d, want 30", got)
	}
}

func TestReplyChecks(t *testing.T) {
	sp := respSpec{keys: 8, getFrac: 1}
	s := newStream(0, sp, 1)
	s.set(2) // version 1 of an owned key
	val := valueBytes(nil, 2, 1)
	for _, c := range []struct {
		name string
		x    expect
		kind byte
		val  []byte
		want bool
	}{
		{"set ok", expect{key: 2, ver: 1}, '+', []byte("OK"), true},
		{"error reply", expect{key: 2, ver: 1}, '-', []byte("BUSY"), false},
		{"owned get", expect{get: true, key: 2, ver: 1}, '$', val, true},
		{"owned get, stale version", expect{get: true, key: 2, ver: 2}, '$', val, false},
		{"other client's key at any version", expect{get: true, key: 3}, '$', valueBytes(nil, 3, 7), true},
		{"value of another key", expect{get: true, key: 3}, '$', valueBytes(nil, 5, 7), false},
		{"missing key", expect{get: true, key: 3}, '$', nil, false},
		{"corrupt payload", expect{get: true, key: 2, ver: 1}, '$', append(val[:valueLen-1:valueLen-1], '!'), false},
	} {
		if got := s.ok(c.x, c.kind, c.val); got != c.want {
			t.Errorf("%s: ok=%v, want %v", c.name, got, c.want)
		}
	}
}
