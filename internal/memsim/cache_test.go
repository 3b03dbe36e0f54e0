package memsim

import (
	"math"
	"testing"
)

// abFlowSets builds closed flow sets shaped like the paper figures that
// solve closed loops: KeyDB request streams over MMEM/CXL interleaves
// with per-access think time (Fig. 5), Spark executors streaming and
// probing an interleaved heap beside an SSD spill stage and a fixed-rate
// shuffle (Fig. 7), and YCSB-C bound wholly to CXL or to MMEM (Fig. 8).
// It returns the resources too, so the caller can degrade them.
func abFlowSets() (map[string][]ClosedFlow, []*Resource) {
	ddr, cxl := NewDDRDomain("ddr"), NewCXLDevice("cxl")
	upi, rsf, ssd := NewUPILink("upi"), NewRSFStage("rsf"), NewSSDStage("ssd")
	mmem := NewPath("MMEM", ddr)
	local := NewPath("CXL", cxl)
	remote := NewPath("CXL-remote", upi, rsf, cxl)
	flash := NewPath("SSD", ssd)

	sets := map[string][]ClosedFlow{
		"fig5": {
			{Placement: Interleave(mmem, local, 1, 1), Mix: Mix2to1, Threads: 12, MLP: 4, AccessBytes: 64, ThinkNs: 40},
			{Placement: Interleave(mmem, remote, 3, 1), Mix: Mix1to1, Threads: 8, MLP: 4, AccessBytes: 64, ThinkNs: 40},
		},
		"fig7": {
			{Placement: Interleave(mmem, local, 3, 1), Mix: Mix{ReadFrac: 0.6}, Threads: 20, MLP: 8, AccessBytes: 64},
			{Placement: Interleave(mmem, local, 3, 1), Mix: Mix{ReadFrac: 0.8, Pattern: Random}, Threads: 20, MLP: 1, AccessBytes: 64},
			{Placement: SinglePath(flash), Mix: Mix1to1, Threads: 20, MLP: 4, AccessBytes: 128 << 10},
			{Placement: SinglePath(local), Mix: ReadOnly, FixedGBps: 2},
			{Placement: SinglePath(mmem), Mix: WriteOnly, FixedGBps: 2},
		},
		"fig8-cxl":  {{Placement: SinglePath(local), Mix: ReadOnly, Threads: 32, MLP: 8, AccessBytes: 64, ThinkNs: 20}},
		"fig8-mmem": {{Placement: SinglePath(mmem), Mix: ReadOnly, Threads: 32, MLP: 8, AccessBytes: 64, ThinkNs: 20}},
	}
	return sets, []*Resource{ddr, cxl, upi, rsf, ssd}
}

// TestSolveCacheABUncached is the cache's A/B check: SolveClosed on a
// miss and then on a hit must be bit-identical to the uncached fixed
// point solveClosed, in results and utilization, on figure-shaped flow
// sets, healthy and again after Resource.Degrade changes the parameters
// the cache key fingerprints.
func TestSolveCacheABUncached(t *testing.T) {
	ResetSolveCache()
	defer ResetSolveCache()

	sets, resources := abFlowSets()
	for _, phase := range []string{"healthy", "degraded"} {
		if phase == "degraded" {
			for _, r := range resources {
				r.Degrade(0.5, 1.5)
			}
		}
		for name, flows := range sets {
			want, wantUtil := solveClosed(flows)
			for _, pass := range []string{"miss", "hit"} {
				h0, m0, _ := SolveCacheStats()
				got, gotUtil := SolveClosed(flows)
				h1, m1, _ := SolveCacheStats()
				if pass == "miss" && m1 != m0+1 || pass == "hit" && h1 != h0+1 {
					t.Fatalf("%s/%s %s: cache stats went hits %d→%d misses %d→%d", phase, name, pass, h0, h1, m0, m1)
				}
				label := phase + "/" + name + " " + pass
				for i := range want {
					sameBits(t, label+" achieved", got[i].Achieved, want[i].Achieved)
					sameBits(t, label+" offered", got[i].Offered, want[i].Offered)
					sameBits(t, label+" latency", got[i].Latency, want[i].Latency)
				}
				if len(gotUtil) != len(wantUtil) {
					t.Fatalf("%s: utilization covers %d resources, want %d", label, len(gotUtil), len(wantUtil))
				}
				for r, u := range wantUtil {
					sameBits(t, label+" utilization "+r.Name, gotUtil[r], u)
				}
			}
		}
	}
}

func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v, uncached %v", what, got, want)
	}
}
