package core

import (
	"strings"
	"testing"
)

func TestExperimentsRegistry(t *testing.T) {
	want := []string{"dram", "emu", "fig10", "fig3", "fig4", "fig5", "fig7", "fig8", "fleet", "gen", "plan", "pool", "qos", "sec43", "sense", "shard", "table2", "table3"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("experiments = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("experiments = %v, want %v", got, want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestRunAllQuick(t *testing.T) {
	reps, err := RunAll(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(Experiments()) {
		t.Fatalf("got %d reports, want %d", len(reps), len(Experiments()))
	}
	for _, r := range reps {
		if len(r.Rows) == 0 {
			t.Errorf("%s: empty report", r.ID)
		}
		if len(r.Headers) == 0 {
			t.Errorf("%s: no headers", r.ID)
		}
		for _, row := range r.Rows {
			if len(row) != len(r.Headers) {
				t.Errorf("%s: row width %d != headers %d", r.ID, len(row), len(r.Headers))
			}
		}
	}
}

func TestWriteTable(t *testing.T) {
	rep := &Report{
		ID:      "demo",
		Title:   "demo table",
		Headers: []string{"a", "long-header"},
	}
	rep.AddRow("x", "y")
	rep.AddNote("a note with %d", 42)
	var sb strings.Builder
	rep.WriteTable(&sb)
	out := sb.String()
	for _, want := range []string{"== demo: demo table ==", "long-header", "note: a note with 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestSeedDefaults(t *testing.T) {
	if (Options{}).seed() != 42 {
		t.Fatal("zero seed should default to 42")
	}
	if (Options{Seed: 7}).seed() != 7 {
		t.Fatal("explicit seed should pass through")
	}
}

func TestWriteCSV(t *testing.T) {
	rep := &Report{
		ID:      "demo",
		Headers: []string{"a", "b"},
	}
	rep.AddRow("1", "two, with comma")
	rep.AddNote("n1")
	var sb strings.Builder
	if err := rep.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "a,b\n") {
		t.Errorf("missing CSV header: %q", out)
	}
	if !strings.Contains(out, `"two, with comma"`) {
		t.Errorf("comma cell not quoted: %q", out)
	}
	if !strings.Contains(out, "# n1") {
		t.Errorf("missing note comment: %q", out)
	}
}

func TestEmulationGapReport(t *testing.T) {
	rep, err := Run("emu", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("emu rows = %d, want 5 mixes", len(rep.Rows))
	}
}

func TestGenerationsReport(t *testing.T) {
	rep, err := Run("gen", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("gen rows = %d, want 4 generations", len(rep.Rows))
	}
}

func TestRunAllDeterministic(t *testing.T) {
	render := func() string {
		reps, err := RunAll(Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, r := range reps {
			r.WriteTable(&sb)
		}
		return sb.String()
	}
	if render() != render() {
		t.Fatal("RunAll output is not deterministic")
	}
}

// TestRunAllParallelByteIdentical is the determinism contract of the
// parallel runner: tables AND CSV from a fully parallel run must match a
// forced-serial run byte for byte.
func TestRunAllParallelByteIdentical(t *testing.T) {
	render := func(parallel int) string {
		reps, err := RunAll(Options{Quick: true, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, r := range reps {
			r.WriteTable(&sb)
			if err := r.WriteCSV(&sb); err != nil {
				t.Fatal(err)
			}
		}
		return sb.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatal("parallel RunAll output differs from serial run")
	}
}

// TestShardExperimentByteIdenticalAcrossShards pins the -shards contract
// at the report level: the rendered table must not change with the shard
// count.
func TestShardExperimentByteIdenticalAcrossShards(t *testing.T) {
	render := func(shards int) string {
		rep, err := Run("shard", Options{Quick: true, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		rep.WriteTable(&sb)
		return sb.String()
	}
	want := render(1)
	for _, shards := range []int{2, 4, 8} {
		if got := render(shards); got != want {
			t.Fatalf("shard experiment diverged at shards=%d:\n%s\nvs\n%s", shards, want, got)
		}
	}
}

func TestFig3ReportAnchors(t *testing.T) {
	rep, err := Run("fig3", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// 4 paths × 5 mixes.
	if len(rep.Rows) != 20 {
		t.Fatalf("fig3 rows = %d, want 20", len(rep.Rows))
	}
}
