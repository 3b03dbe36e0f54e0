package analytics

import (
	"math"
	"testing"
)

// runAll executes every (config, query) cell once and caches results.
var fig7Cache map[string]map[string]QueryResult

func fig7(t *testing.T) map[string]map[string]QueryResult {
	t.Helper()
	if fig7Cache != nil {
		return fig7Cache
	}
	out := map[string]map[string]QueryResult{}
	for _, cfg := range Fig7Configs() {
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[cfg.Name] = map[string]QueryResult{}
		for _, q := range TPCHQueries() {
			out[cfg.Name][q.Name] = e.Run(q)
		}
	}
	fig7Cache = out
	return out
}

func TestQueryProfiles(t *testing.T) {
	qs := TPCHQueries()
	if len(qs) != 4 {
		t.Fatalf("want 4 queries (Q5,Q7,Q8,Q9), got %d", len(qs))
	}
	names := []string{"Q5", "Q7", "Q8", "Q9"}
	for i, q := range qs {
		if q.Name != names[i] {
			t.Errorf("query %d = %s, want %s", i, q.Name, names[i])
		}
		if len(q.Phases) != 3 {
			t.Errorf("%s: want 3 phases", q.Name)
		}
	}
	// Q9 shuffles the most (the paper's most shuffle-intensive query).
	if qs[3].Phases[1].StreamBytes <= qs[0].Phases[1].StreamBytes {
		t.Error("Q9 should shuffle more than Q5")
	}
}

func TestFig7ConfigsShape(t *testing.T) {
	cfgs := Fig7Configs()
	if len(cfgs) != 7 {
		t.Fatalf("want 7 configurations, got %d", len(cfgs))
	}
	for _, c := range cfgs {
		total := c.Servers * c.ExecutorsPerServer
		if total != 150 {
			t.Errorf("%s: %d executors, want 150 (§4.2.1)", c.Name, total)
		}
	}
}

func TestEngineValidation(t *testing.T) {
	bad := []ClusterConfig{
		{Servers: 0, ExecutorsPerServer: 1},
		{Servers: 1, ExecutorsPerServer: 0},
		{Servers: 1, ExecutorsPerServer: 1, MMEMExecFrac: 1.5},
	}
	for i, cfg := range bad {
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

// TestFig7bShuffleShare: the Fig. 7(b) shuffle share decomposes into its
// write and read components in every cell.
func TestFig7bShuffleShare(t *testing.T) {
	for cfg, byQuery := range fig7(t) {
		for q, r := range byQuery {
			if sum := r.ShuffleWrite + r.ShuffleRead; math.Abs(sum-r.ShufflePct()) > 1e-9 {
				t.Errorf("%s %s: shuffle components %.3f don't sum to share %.3f", cfg, q, sum, r.ShufflePct())
			}
		}
	}
}

func TestShufflePctZeroSafe(t *testing.T) {
	if (QueryResult{}).ShufflePct() != 0 {
		t.Fatal("zero exec time should give zero shuffle share")
	}
}

func TestDeterministic(t *testing.T) {
	e1, _ := NewEngine(Fig7Configs()[2])
	e2, _ := NewEngine(Fig7Configs()[2])
	q := TPCHQueries()[1]
	if e1.Run(q).ExecTimeNs != e2.Run(q).ExecTimeNs {
		t.Fatal("engine runs are not deterministic")
	}
}

func BenchmarkQ9Interleave13(b *testing.B) {
	e, _ := NewEngine(Fig7Configs()[3])
	q := TPCHQueries()[3]
	for i := 0; i < b.N; i++ {
		e.Run(q)
	}
}
