package cxlsim_test

// The claims table is the one place a paper number lives in cxlsim: each
// row names a quantity the paper reports, the paper's own words for it,
// the band the model must stay in, and an extractor that measures it.
// TestClaims fails on any row outside its band and renders the rows into
// EXPERIMENTS.md between <!-- claims:<artifact> --> markers, so the
// paper-vs-measured tables there are generated, never hand-kept.
//
//	go test . -run TestClaims -v       # every row with its headroom
//	go test . -run TestClaims -update  # rewrite EXPERIMENTS.md's tables
//
// Headroom is the distance from the measured value to the nearer band
// edge, as a percentage of the measured value: a number drifting toward
// its edge shows there before it fails. A row marked deviation is one
// where the model misses the paper; its band is the tolerance the repo
// already states, and it stays in the table so the miss stays visible.

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cxlsim/internal/core"
	"cxlsim/internal/elastic"
	"cxlsim/internal/llm"
	"cxlsim/internal/memsim"
	"cxlsim/internal/mlc"
	"cxlsim/internal/topology"
)

var update = flag.Bool("update", false, "rewrite the claim tables in EXPERIMENTS.md")

const experimentsFile = "EXPERIMENTS.md"

var inf = math.Inf(1)

type claim struct {
	artifact  string // EXPERIMENTS.md section the row renders into
	quantity  string
	paper     string // the paper's value, in the paper's words
	lo, hi    float64
	deviation bool
	measure   func() float64
}

// Fig. 3/4 route labels, as the reports print them.
const (
	mmem  = "s0→cxlsrv/s0/snc0"
	mmemR = "s1→cxlsrv/s0/snc0"
	cxl   = "s0→cxlsrv/s0/cxl0"
	cxlR  = "s1→cxlsrv/s0/cxl0"
)

var claims = []claim{
	// Fig. 3: loaded latency by route and read:write mix.
	{"fig3", "MMEM idle read latency (ns)", "≈97 ns", 96.03, 97.97, false,
		func() float64 { return fig3(mmem, "1:0", "idle ns") }},
	{"fig3", "MMEM read-only peak (GB/s)", "67 GB/s", 66.5, 67.5, false,
		func() float64 { return fig3(mmem, "1:0", "peak GB/s") }},
	{"fig3", "MMEM read-only peak, % of 76.8 GB/s theoretical", "87%", 86, 88, false,
		func() float64 { return 100 * fig3(mmem, "1:0", "peak GB/s") / memsim.SNCDomainPeakGBps }},
	{"fig3", "MMEM write-only peak (GB/s)", "54.6 GB/s", 54.1, 55.1, false,
		func() float64 { return fig3(mmem, "0:1", "peak GB/s") }},
	{"fig3", "MMEM read-only latency knee (% of peak)", "latency takes off at 75–83% of peak", 70, 90, true,
		func() float64 { return fig3(mmem, "1:0", "knee %peak") }},
	{"fig3", "MMEM write-only latency knee (% of peak)", "latency takes off at 75–83% of peak", 75, 83, false,
		func() float64 { return fig3(mmem, "0:1", "knee %peak") }},
	{"fig3", "MMEM-r idle read latency (ns)", "≈130 ns", 128.7, 131.3, false,
		func() float64 { return fig3(mmemR, "1:0", "idle ns") }},
	{"fig3", "MMEM-r NT-write idle latency (ns)", "71.77 ns", 71.05, 72.49, false,
		func() float64 { return fig3(mmemR, "0:1", "idle ns") }},
	{"fig3", "MMEM-r write-only peak ÷ lowest other MMEM-r mix", "write-only is lowest (one UPI direction)", -inf, 0.99, false,
		func() float64 {
			return fig3(mmemR, "0:1", "peak GB/s") / lowest([]string{"1:0", "2:1", "1:1", "1:3"}, func(mix string) float64 { return fig3(mmemR, mix, "peak GB/s") })
		}},
	{"fig3", "CXL idle read latency (ns)", "250.42 ns", 247.92, 252.92, false,
		func() float64 { return fig3(cxl, "1:0", "idle ns") }},
	{"fig3", "CXL 2:1 peak (GB/s)", "56.7 GB/s, the CXL maximum", 56.2, 57.2, false,
		func() float64 { return fig3(cxl, "2:1", "peak GB/s") }},
	{"fig3", "CXL read-only peak ÷ 2:1 peak", "read-only below 2:1 (PCIe duplex)", -inf, 0.99, false,
		func() float64 { return fig3(cxl, "1:0", "peak GB/s") / fig3(cxl, "2:1", "peak GB/s") }},
	{"fig3", "CXL-r idle read latency (ns)", "485 ns", 480.15, 489.85, false,
		func() float64 { return fig3(cxlR, "1:0", "idle ns") }},
	{"fig3", "CXL-r 2:1 peak (GB/s)", "20.4 GB/s (RSF clamp)", 19.9, 20.9, false,
		func() float64 { return fig3(cxlR, "2:1", "peak GB/s") }},
	{"fig3", "remote ÷ local 2:1 peak, CXL ÷ DDR", "remote CXL drops far more than remote DDR", -inf, 0.99, false,
		func() float64 {
			return (fig3(cxlR, "2:1", "peak GB/s") / fig3(cxl, "2:1", "peak GB/s")) /
				(fig3(mmemR, "2:1", "peak GB/s") / fig3(mmem, "2:1", "peak GB/s"))
		}},
	{"fig3", "UPI utilization at the CXL-r 2:1 peak (%)", "UPI consistently below 30%; the RSF is the bottleneck", -inf, 45, true,
		func() float64 {
			m := topology.TestbedSNC()
			p := m.PathFrom(1, m.CXLNodes()[0])
			_, util := memsim.SolveOpen([]memsim.OpenFlow{{Placement: memsim.SinglePath(p), Mix: memsim.Mix2to1, Offered: p.PeakBandwidth(memsim.Mix2to1)}})
			return 100 * util[m.UPI()]
		}},
	{"fig3", "MMEM-r write-only delivered at 1.4× ÷ 1× peak offered", "bandwidth recedes past saturation (0:1 panel)", -inf, 0.99, false,
		overloadRecession},

	// Fig. 4: distance comparison and access pattern.
	{"fig4", "CXL ÷ MMEM idle read latency", "2.4–2.6×", 2.4, 2.6, false,
		func() float64 {
			return fig4("1:0", "sequential", cxl, "idle ns") / fig4("1:0", "sequential", mmem, "idle ns")
		}},
	{"fig4", "CXL ÷ MMEM-r idle read latency", "1.5–1.92×", 1.5, 1.95, true,
		func() float64 {
			return fig4("1:0", "sequential", cxl, "idle ns") / fig4("1:0", "sequential", mmemR, "idle ns")
		}},
	{"fig4", "MMEM knee, read-only − write-only (points)", "knee shifts left as writes rise", 1, inf, false,
		func() float64 { return fig3(mmem, "1:0", "knee %peak") - fig3(mmem, "0:1", "knee %peak") }},
	{"fig4", "MMEM-r knee, read-only − write-only (points)", "knee shifts left as writes rise", 1, inf, false,
		func() float64 { return fig3(mmemR, "1:0", "knee %peak") - fig3(mmemR, "0:1", "knee %peak") }},
	{"fig4", "largest random ÷ sequential idle latency", "no significant performance disparities", 0.95, 1.05, false,
		func() float64 {
			return highest(fig4Cells, func(c [2]string) float64 { return randomOverSequential(c, "idle ns") })
		}},
	{"fig4", "smallest random ÷ sequential peak", "no significant performance disparities", 0.95, 1.05, false,
		func() float64 {
			return lowest(fig4Cells, func(c [2]string) float64 { return randomOverSequential(c, "peak GB/s") })
		}},

	// Fig. 5: KeyDB YCSB under the Table-1 configurations (YCSB-A unless named).
	{"fig5", "smallest slowdown vs MMEM, any config and workload", "MMEM fastest in every workload", 1.01, inf, false,
		func() float64 {
			return lowest(fullReport("fig5").Rows, func(row []string) float64 {
				if row[0] == "MMEM" {
					return inf
				}
				return number(row[3])
			})
		}},
	{"fig5", "3:1 slowdown", "interleaving 1.2–1.5× slower", 1.10, 1.35, false,
		func() float64 { return fig5Slowdown("3:1") }},
	{"fig5", "1:1 slowdown", "interleaving 1.2–1.5× slower", 1.2, 1.5, false,
		func() float64 { return fig5Slowdown("1:1") }},
	{"fig5", "1:3 slowdown", "interleaving 1.2–1.5× slower", 1.35, 1.70, true,
		func() float64 { return fig5Slowdown("1:3") }},
	{"fig5", "smallest slowdown step 3:1 → 1:1 → 1:3", "more CXL share, slower", 1.001, inf, false,
		func() float64 { return smallestStep(fig5Interleaves, fig5Slowdown) }},
	{"fig5", "MMEM-SSD-0.2 slowdown", "≈1.8×", 1.5, 2.2, false,
		func() float64 { return fig5Slowdown("MMEM-SSD-0.2") }},
	{"fig5", "MMEM-SSD-0.4 slowdown", "≈1.8×", 1.5, 2.2, false,
		func() float64 { return fig5Slowdown("MMEM-SSD-0.4") }},
	{"fig5", "MMEM-SSD-0.4 slowdown, YCSB-D", "≈1.8×", 1.5, 2.6, true,
		func() float64 { return number(cell("fig5", "vs MMEM", "MMEM-SSD-0.4", "YCSB-D")) }},
	{"fig5", "MMEM-SSD-0.2 ÷ 1:3 slowdown", "interleaving beats SSD spill", 1.001, inf, false,
		func() float64 { return fig5("1:3", "kops/s") / fig5("MMEM-SSD-0.2", "kops/s") }},
	{"fig5", "MMEM-SSD-0.4 ÷ MMEM-SSD-0.2 slowdown", "more spill, slower", 1.001, inf, false,
		func() float64 { return fig5("MMEM-SSD-0.2", "kops/s") / fig5("MMEM-SSD-0.4", "kops/s") }},
	{"fig5", "MMEM-SSD-0.4 ÷ slowest interleave (1:3) slowdown", "≈1.55× (DESIGN.md §5)", 1.1, 1.6, true,
		func() float64 { return fig5Slowdown("MMEM-SSD-0.4") / highest(fig5Interleaves, fig5Slowdown) }},
	{"fig5", "MMEM-SSD-0.4 ÷ fastest interleave (3:1) slowdown", "≈1.55× (DESIGN.md §5)", 1.1, 1.6, true,
		func() float64 { return fig5Slowdown("MMEM-SSD-0.4") / lowest(fig5Interleaves, fig5Slowdown) }},
	{"fig5", "Hot-Promote slowdown", "performs \"nearly as well\" as MMEM", 1.0, 1.15, false,
		func() float64 { return fig5Slowdown("Hot-Promote") }},
	{"fig5", "p99, lowest interleave ÷ MMEM", "tail latency tracks placement", 1.01, inf, false,
		func() float64 { return lowest(fig5Interleaves, fig5P99) / fig5P99("MMEM") }},
	{"fig5", "p99, lowest SSD config ÷ highest interleave", "tail latency tracks placement", 1.01, inf, false,
		func() float64 { return lowest(fig5SSD, fig5P99) / highest(fig5Interleaves, fig5P99) }},
	{"fig5", "MMEM-SSD-0.4 hit rate, YCSB-C", "Zipfian keeps the working set largely cached", 0.85, 0.999, false,
		func() float64 { return number(cell("fig5", "hit rate", "MMEM-SSD-0.4", "YCSB-C")) }},

	// Fig. 7: Spark TPC-H, execution time normalized to MMEM.
	{"fig7", "fastest interleave cell", "1.4× (low end of the slowdown range)", 1.2, 1.8, false,
		func() float64 { return lowest(interleaveCells, fig7Slowdown) }},
	{"fig7", "slowest interleave cell", "9.8× (high end of the slowdown range)", 7.5, 12, true,
		func() float64 { return highest(interleaveCells, fig7Slowdown) }},
	{"fig7", "smallest step MMEM → 3:1 → 1:1 → 1:3, any query", "degradation grows with CXL share", 1.001, inf, false,
		func() float64 {
			return lowest(tpchQueries, func(q string) float64 {
				return smallestStep([]string{"MMEM", "3:1", "1:1", "1:3"}, func(cfg string) float64 { return fig7Slowdown([2]string{cfg, q}) })
			})
		}},
	{"fig7", "smallest step Q5 → Q7 → Q8 → Q9, any interleave", "shuffle-heavier queries degrade more", 1.001, inf, false,
		func() float64 {
			return lowest([]string{"3:1", "1:1", "1:3"}, func(cfg string) float64 {
				return smallestStep(tpchQueries, func(q string) float64 { return fig7Slowdown([2]string{cfg, q}) })
			})
		}},
	{"fig7", "SSD spill ÷ interleave at equal memory pressure, any query", "interleaving remains significantly faster than spilling", 1.001, inf, false,
		func() float64 {
			return lowest(tpchQueries, func(q string) float64 {
				return min(fig7Slowdown([2]string{"MMEM-SSD-0.6", q})/fig7Slowdown([2]string{"1:3", q}),
					fig7Slowdown([2]string{"MMEM-SSD-0.8", q})/fig7Slowdown([2]string{"1:1", q}))
			})
		}},
	{"fig7", "Hot-Promote slowdown, fastest query", "more than 34% slower than MMEM", 1.34, inf, false,
		func() float64 {
			return lowest(tpchQueries, func(q string) float64 { return fig7Slowdown([2]string{"Hot-Promote", q}) })
		}},
	{"fig7", "1:1 ÷ Hot-Promote, any query", "not reported (promotion drift beats static 1:1)", 1.001, inf, false,
		func() float64 {
			return lowest(tpchQueries, func(q string) float64 {
				return fig7Slowdown([2]string{"1:1", q}) / fig7Slowdown([2]string{"Hot-Promote", q})
			})
		}},
	{"fig7", "MMEM-SSD-0.6 shuffle share, least-shuffled query (%)", "shuffle dominates as spill intensifies", 80, 100, false,
		func() float64 {
			return lowest(tpchQueries, func(q string) float64 { return fig7("MMEM-SSD-0.6", q, "shuffle %") })
		}},
	{"fig7", "MMEM-SSD-0.6 − MMEM shuffle share, any query (points)", "shuffle dominates as spill intensifies", 1, inf, false,
		func() float64 {
			return lowest(tpchQueries, func(q string) float64 {
				return fig7("MMEM-SSD-0.6", q, "shuffle %") - fig7("MMEM", q, "shuffle %")
			})
		}},
	{"fig7", "Q9 − Q5 shuffle share, any config (points)", "Q9 is the most shuffle-intensive query", 1, inf, false,
		func() float64 {
			return lowest(fig7Configs, func(cfg string) float64 { return fig7(cfg, "Q9", "shuffle %") - fig7(cfg, "Q5", "shuffle %") })
		}},

	// Fig. 8: KeyDB YCSB-C bound entirely to CXL, 100 GB working set.
	{"fig8", "throughput drop on CXL-only (%)", "≈12.5%", 8, 18, false, fig8Drop},
	{"fig8", "p50 read-latency penalty (%)", "9–27%", 9, 27, false,
		func() float64 { return 100 * (fig8("CXL", "p50 µs")/fig8("MMEM", "p50 µs") - 1) }},
	{"fig8", "p99 read-latency penalty (%)", "9–27%", 5, 30, true,
		func() float64 { return 100 * (fig8("CXL", "p99 µs")/fig8("MMEM", "p99 µs") - 1) }},
	{"fig8", "CXL ÷ MMEM p50 read latency", "below the raw 2.4–2.6× device ratio (Redis software path)", 1.01, 2.4, false,
		func() float64 { return fig8("CXL", "p50 µs") / fig8("MMEM", "p50 µs") }},

	// Fig. 10: CPU LLM inference, 12 threads per backend.
	{"fig10", "MMEM serving rate, 48 ÷ 12 threads", "improves almost linearly until saturation", 3.6, 4.1, false,
		func() float64 { return fig10("MMEM", 48) / fig10("MMEM", 12) }},
	{"fig10", "MMEM serving rate, 60 ÷ 48 threads", "MMEM bandwidth saturation at 48 threads limits the rate", -inf, 0.99, false,
		func() float64 { return fig10("MMEM", 60) / fig10("MMEM", 48) }},
	{"fig10", "3:1 gain over MMEM at 60 threads (%)", "95%", 75, 120, false,
		func() float64 { return 100 * (fig10("3:1", 60)/fig10("MMEM", 60) - 1) }},
	{"fig10", "MMEM deficit vs 1:3 at 72 threads (%)", "14% beyond 64 threads", 5, 25, true,
		func() float64 { return 100 * (1 - fig10("MMEM", 72)/fig10("1:3", 72)) }},
	{"fig10", "MMEM deficit vs 1:3 at 84 threads (%)", "14% beyond 64 threads", 5, 25, true,
		func() float64 {
			c := llm.NewCluster()
			p := llm.Fig10Policies()
			return 100 * (1 - c.ServingRate(p[0], 7).TokensPerSec/c.ServingRate(p[3], 7).TokensPerSec)
		}},
	{"fig10", "smallest rate step 1:3 → 1:1 → 3:1, 12–60 threads", "a higher MMEM share performs better", 1, inf, false,
		func() float64 {
			return lowest([]int{12, 24, 36, 48, 60}, func(th int) float64 {
				return smallestStep([]string{"1:3", "1:1", "3:1"}, func(p string) float64 { return fig10(p, th) })
			})
		}},
	{"fig10", "single-backend bandwidth, 12 threads (GB/s)", "13.5 GB/s", 12.8, 14.2, false,
		func() float64 { return fig10Cell("(b) backend bw", "12 threads") }},
	{"fig10", "single-backend bandwidth plateau, 24 threads (GB/s)", "24.2 GB/s", 23.7, 24.7, false,
		func() float64 { return fig10Cell("(b) backend bw", "24 threads") }},
	{"fig10", "KV-cache bandwidth, empty cache (GB/s)", "≈12 GB/s from model loading", 11.5, 12.5, false,
		func() float64 { return fig10Cell("(c) kv cache bw", "0 GB") }},
	{"fig10", "KV-cache bandwidth, 64 GB cache (GB/s)", "stops increasing beyond ≈21 GB/s", 19.5, 21.5, false,
		func() float64 { return llm.NewCluster().KVCacheBandwidth(64e9) }},

	// Table 2: processor series.
	{"table2", "largest difference of the required-memory column from the paper's (TB)", "0.64, 0.768, 1, 4.5, 4.5 TB", 0, 0, false,
		func() float64 {
			paper := []float64{0.64, 0.768, 1, 4.5, 4.5}
			worst := 0.0
			for i, row := range fullReport("table2").Rows {
				worst = max(worst, math.Abs(number(cell("table2", "required TB", row[0]))-paper[i]))
			}
			return worst
		}},
	{"table2", "largest gap, computed vs printed 1:4 requirement (%)", "0.64, 0.768, 1, 4.5, 4.5 TB", -inf, 3, false,
		func() float64 {
			return highest(elastic.Table2(), func(p elastic.Processor) float64 {
				return 100 * math.Abs(p.RequiredMemoryTB()-p.PublishedRequiredTB) / p.PublishedRequiredTB
			})
		}},
	{"table2", "Sierra Forest memory gap (TB)", "≤4 TB, short of the 4.5 TB needed", 0.4, 0.6, false,
		func() float64 { return number(cell("table2", "gap TB", "2024+", "Sierra Forest")) }},
	{"table2", "Sierra Forest sellable vCPUs (%)", "vCPUs stranded", -inf, 99, false,
		func() float64 { return number(cell("table2", "sellable", "2024+", "Sierra Forest")) }},
	{"table2", "IceLake-SP sellable vCPUs (%)", "fully provisioned", 100, 100, false,
		func() float64 { return number(cell("table2", "sellable", "2021", "IceLake-SP")) }},

	// Table 3 / §6: Abstract Cost Model, Rd=10, Rc=8, C=2, Rt=1.1.
	{"table3", "N_cxl ÷ N_baseline (%)", "67.29%", 67.29, 67.29, false,
		func() float64 { return number(cell("table3", "N_cxl/N_base")) }},
	{"table3", "server reduction (%)", "32.71%", 32.71, 32.71, false,
		func() float64 { return number(cell("table3", "server reduction")) }},
	{"table3", "TCO saving (%)", "25.98%", 25.98, 25.98, false,
		func() float64 { return number(cell("table3", "TCO saving")) }},

	// §4.3.2: elastic-compute revenue.
	{"sec43", "sellable vCPUs at 1:3 provisioning (%)", "75%", 75, 75, false,
		func() float64 { return number(cell("sec43", "sellable")) }},
	{"sec43", "revenue loss (%)", "25%", 25, 25, false,
		func() float64 { return number(cell("sec43", "stranded")) }},
	{"sec43", "revenue recovered at a 20% CXL discount (%)", "\"20/75 = 26.77%\" (sic: 26.67%), \"≈27%\"", 26.57, 26.77, false,
		func() float64 { return number(cell("sec43", "recovered revenue")) }},
	{"sec43", "20% discount − Fig. 8 throughput drop (points)", "the discount covers the 12.5% CXL penalty", 0, inf, false,
		func() float64 { return number(cell("sec43", "CXL discount")) - fig8Drop() }},

	// §3.4, §5.3 and §3.2 insight ablations, on the SNC testbed.
	{"ablations", "§3.4: offload 20% of a 90 GB/s read stream, latency ÷ MMEM-only", "CXL as load balancing relieves contention", -inf, 0.99, false,
		func() float64 {
			only, off := openRead(singleMMEM(), 90), openRead(interleaveMMEMCXL(4, 1), 90)
			return off.Latency / only.Latency
		}},
	{"ablations", "§3.4: 3:1 interleave ÷ MMEM-only delivered bandwidth at 90 GB/s", "CXL as load balancing relieves contention", 1.001, inf, false,
		func() float64 {
			return openRead(interleaveMMEMCXL(3, 1), 90).Achieved / openRead(singleMMEM(), 90).Achieved
		}},
	{"ablations", "§5.3: promote a 20% CXL slice at 75 GB/s, latency after ÷ before", "promotion into a saturated MMEM slows the workload", 1.001, inf, false,
		func() float64 {
			return openRead(singleMMEM(), 75).Latency / openRead(interleaveMMEMCXL(4, 1), 75).Latency
		}},
	{"ablations", "§3.2: cross-socket CXL 2:1 peak without ÷ with the RSF", "a fixed RSF approaches remote-DDR bandwidth", 2, inf, false,
		func() float64 {
			m := topology.TestbedSNC()
			fixed := memsim.NewPath("CXL-r-fixed", memsim.NewUPILink("upi2"), memsim.NewCXLDevice("cxl2"))
			return fixed.PeakBandwidth(memsim.Mix2to1) / m.PathFrom(1, m.CXLNodes()[0]).PeakBandwidth(memsim.Mix2to1)
		}},

	// Extension experiments, checked against the §3 anchors they rest on.
	{"dram", "bank model stream read efficiency (%)", "87% system anchor, bounded from above", 85, 99, false,
		func() float64 { return number(cell("dram", "efficiency", "stream read 1:0")) }},
	{"dram", "bank model write ÷ read stream bandwidth", "54.6 ÷ 67 = 0.81", 0.75, 0.90, false,
		func() float64 {
			return number(cell("dram", "bw GB/s", "stream write 0:1")) / number(cell("dram", "bw GB/s", "stream read 1:0"))
		}},
	{"dram", "bank model random ÷ sequential read bandwidth", "no significant disparity", 0.75, 1, false,
		func() float64 {
			return number(cell("dram", "bw GB/s", "random read")) / number(cell("dram", "bw GB/s", "stream read 1:0"))
		}},
	{"dram", "bank model dependent-chain latency (ns)", "≈51 ns of the 97 ns system total", 45, 60, false,
		func() float64 { return number(cell("dram", "avg lat ns", "dependent chain")) }},
	{"cxlfit", "CXL 2:1 sweep refit: idle latency (ns)", "229 ns (2:1 idle)", 224, 234, false,
		func() float64 { return cxlFit().IdleNs }},
	{"cxlfit", "CXL 2:1 sweep refit: peak (GB/s)", "56.7 GB/s", 56.2, 57.2, false,
		func() float64 { return cxlFit().PeakGBps }},
	{"cxlfit", "MMEM read sweep refit: peak (GB/s)", "67 GB/s", 66.3, 67.7, false,
		func() float64 { return ddrFit().PeakGBps }},
	{"cxlfit", "MMEM read sweep refit: knee (% of peak)", "latency takes off at 75–83% of peak", 78, 88, true,
		func() float64 { return 100 * ddrFit().Knee }},
	{"emu", "NUMA-emulated ÷ real CXL idle read latency", "emulation misstates CXL latency (§2.2)", 0.4, 0.6, false,
		func() float64 {
			return number(cell("emu", "emulated idle", "1:0")) / number(cell("emu", "real idle", "1:0"))
		}},
	{"emu", "emulated peak error, read-only (%)", "emulation misstates CXL bandwidth (§2.2)", 20, 35, false,
		func() float64 { return number(cell("emu", "peak error", "1:0")) }},
	{"emu", "emulated peak error, write-only (%)", "emulation misstates CXL bandwidth (§2.2)", -35, -25, false,
		func() float64 { return number(cell("emu", "peak error", "0:1")) }},
	{"gen", "CXL 2.0 − CXL 1.1 idle latency (ns)", "a switch adds latency (§7)", 1, inf, false,
		func() float64 { return gen("CXL 2.0 (switched)", "idle ns") - gen("CXL 1.1 (A1000)", "idle ns") }},
	{"gen", "CXL 2.0 ÷ CXL 1.1 2:1 peak", "same PCIe 5.0 budget", 1, 1, false,
		func() float64 {
			return gen("CXL 2.0 (switched)", "peak GB/s (2:1)") / gen("CXL 1.1 (A1000)", "peak GB/s (2:1)")
		}},
	{"gen", "CXL 3.x ÷ DDR bandwidth", "PCIe 6.0 passes DDR bandwidth (§7)", 1.5, 1.75, false,
		func() float64 { return gen("CXL 3.x (PCIe 6.0)", "bw vs DDR") }},
	{"gen", "CXL 3.x ÷ DDR idle latency", "at a latency cost (§7)", 3.3, 3.9, false,
		func() float64 { return gen("CXL 3.x (PCIe 6.0)", "lat vs DDR") }},
	{"pool", "p99 provisioning saving, 8 hosts (%)", "pooling amortizes burst capacity (§7)", 10, 60, false,
		func() float64 { return number(cell("pool", "value", "capacity", "8")) }},
	{"pool", "p99 provisioning saving, 16 − 2 hosts (points)", "savings grow with pool size", 1, inf, false,
		func() float64 {
			return number(cell("pool", "value", "capacity", "16")) - number(cell("pool", "value", "capacity", "2"))
		}},
	{"pool", "victim latency with 8 aggressors ÷ alone", "pooled devices share bandwidth", 1.01, inf, false,
		func() float64 {
			return number(cell("pool", "value", "interference", "8+1")) / number(cell("pool", "value", "interference", "0+1"))
		}},
	{"fleet", "sellable vCPUs without CXL (%)", "75% at 1:3 (§4.3.2)", 75, 75, false,
		func() float64 { return number(cell("fleet", "sellable", "0")) }},
	{"fleet", "sellable vCPUs with 1152 GB of CXL (%)", "CXL closes the 1:4 gap", 100, 100, false,
		func() float64 { return number(cell("fleet", "sellable", "1152")) }},
	{"fleet", "revenue gain with 1152 GB of CXL at a 20% discount (%)", "≈27% (§4.3.2)", 26.17, 27.17, false,
		func() float64 {
			const col = "revenue (20% CXL discount)"
			return 100 * (number(cell("fleet", col, "1152"))/number(cell("fleet", col, "0")) - 1)
		}},
	{"qos", "latency-critical tenant, unregulated ÷ regulated latency", "bandwidth regulation protects latency (ref [31])", 2, inf, false,
		func() float64 { return qos("unregulated", "latency-critical") / qos("regulated", "latency-critical") }},
	{"qos", "regulated latency-critical tenant latency (ns)", "back near the 97 ns idle latency", 97, 120, false,
		func() float64 { return qos("regulated", "latency-critical") }},
	{"qos", "hog bandwidth, tiered ÷ regulated", "tiering recovers best-effort bandwidth", 1.5, inf, false,
		func() float64 {
			return number(cell("qos", "achieved GB/s", "regulated+tiered", "hog-1")) / number(cell("qos", "achieved GB/s", "regulated", "hog-1"))
		}},
	{"sense", "LLM 3:1 gain at 60 threads, 4× CXL latency (%)", "the bandwidth-driven win survives", 25, inf, false,
		func() float64 { return number(cell("sense", "LLM 3:1 gain @60thr", "4.0")) }},
	{"sense", "§3.4 offload latency change, 4× CXL latency (ns)", "the bandwidth-driven win survives", -inf, -1, false,
		func() float64 { return number(cell("sense", "offload Δlatency @90GB/s", "4.0")) }},
	{"sense", "CXL ÷ DDR idle latency, 4× ÷ 1× inflation", "capacity-bound costs scale with latency", 3.5, 4.5, false,
		func() float64 {
			return number(cell("sense", "idle vs DDR", "4.0")) / number(cell("sense", "idle vs DDR", "1.0"))
		}},
	{"plan", "capacity-bound fleet, CXL provisioned (GB)", "capacity-bound fleets pick CXL (§6)", 1, inf, false,
		func() float64 { return number(cell("plan", "CXL GB", "capacity-bound (KeyDB-like)")) }},
	{"plan", "bandwidth-bound fleet, CXL provisioned (GB)", "bandwidth-bound fleets pick CXL (§6)", 1, inf, false,
		func() float64 { return number(cell("plan", "CXL GB", "bandwidth-bound (LLM-like)")) }},
	{"plan", "latency-critical fleet, CXL provisioned (GB)", "latency-critical fleets stay on the baseline (§6)", 0, 0, false,
		func() float64 { return number(cell("plan", "CXL GB", "latency-critical")) }},
}

// fullReport returns one report of the full-fidelity, seed-42 run of
// every experiment, which happens once per test binary.
func fullReport(id string) *core.Report {
	rep, ok := fullReports()[id]
	if !ok {
		panic(fmt.Sprintf("claims: no report %q", id))
	}
	return rep
}

var fullReports = sync.OnceValue(func() map[string]*core.Report {
	reps, err := core.RunAll(core.Options{})
	if err != nil {
		panic(err)
	}
	byID := make(map[string]*core.Report, len(reps))
	for _, r := range reps {
		byID[r.ID] = r
	}
	return byID
})

// cell returns column col of the row of report id whose leading cells
// equal key.
func cell(id, col string, key ...string) string {
	rep := fullReport(id)
	ci := slices.Index(rep.Headers, col)
	if ci < 0 {
		panic(fmt.Sprintf("claims: %s has no column %q", id, col))
	}
	for _, row := range rep.Rows {
		if slices.Equal(row[:len(key)], key) {
			return row[ci]
		}
	}
	panic(fmt.Sprintf("claims: %s has no row %q", id, key))
}

var leadingNumber = regexp.MustCompile(`^[+-]?[0-9]+(\.[0-9]+)?`)

// number parses the number a cell starts with ("1.57x", "26.67%",
// "3.07 tok/s (...)", "-487 ns").
func number(s string) float64 {
	v, err := strconv.ParseFloat(leadingNumber.FindString(s), 64)
	if err != nil {
		panic(fmt.Sprintf("claims: no number in cell %q", s))
	}
	return v
}

// lowest returns the smallest f(x) over xs.
func lowest[T any](xs []T, f func(T) float64) float64 {
	lo := inf
	for _, x := range xs {
		lo = min(lo, f(x))
	}
	return lo
}

// highest returns the largest f(x) over xs.
func highest[T any](xs []T, f func(T) float64) float64 {
	hi := -inf
	for _, x := range xs {
		hi = max(hi, f(x))
	}
	return hi
}

// smallestStep returns the smallest ratio f(next) ÷ f(prev) along xs.
func smallestStep[T any](xs []T, f func(T) float64) float64 {
	step := inf
	for i := 1; i < len(xs); i++ {
		step = min(step, f(xs[i])/f(xs[i-1]))
	}
	return step
}

func fig3(path, mix, col string) float64 { return number(cell("fig3", col, path, mix)) }

func fig4(mix, pattern, path, col string) float64 {
	return number(cell("fig4", col, mix, pattern, path))
}

// fig4Cells are the (mix, path) cells Fig. 4 runs in both patterns.
var fig4Cells = func() [][2]string {
	var cells [][2]string
	for _, mix := range []string{"1:0", "0:1"} {
		for _, path := range []string{mmem, mmemR, cxl, cxlR} {
			cells = append(cells, [2]string{mix, path})
		}
	}
	return cells
}()

func randomOverSequential(c [2]string, col string) float64 {
	return fig4(c[0], "random", c[1], col) / fig4(c[0], "sequential", c[1], col)
}

// fig5 reads a YCSB-A cell.
func fig5(config, col string) float64 { return number(cell("fig5", col, config, "YCSB-A")) }

var (
	fig5Interleaves = []string{"3:1", "1:1", "1:3"}
	fig5SSD         = []string{"MMEM-SSD-0.2", "MMEM-SSD-0.4"}
)

func fig5P99(config string) float64 { return fig5(config, "p99 µs") }

func fig5Slowdown(config string) float64 { return fig5(config, "vs MMEM") }

var (
	tpchQueries     = []string{"Q5", "Q7", "Q8", "Q9"}
	fig7Configs     = []string{"MMEM", "3:1", "1:1", "1:3", "MMEM-SSD-0.8", "MMEM-SSD-0.6", "Hot-Promote"}
	interleaveCells = func() [][2]string {
		var cells [][2]string
		for _, cfg := range []string{"3:1", "1:1", "1:3"} {
			for _, q := range tpchQueries {
				cells = append(cells, [2]string{cfg, q})
			}
		}
		return cells
	}()
)

func fig7(config, query, col string) float64 { return number(cell("fig7", col, config, query)) }

// fig7Slowdown reads the (config, query) execution time normalized to MMEM.
func fig7Slowdown(c [2]string) float64 { return fig7(c[0], c[1], "vs MMEM") }

func fig8(binding, col string) float64 { return number(cell("fig8", col, binding)) }

func fig8Drop() float64 { return 100 * (1 - fig8("CXL", "kops/s")/fig8("MMEM", "kops/s")) }

// fig10 reads a Fig. 10(a) serving rate in tokens/s.
func fig10(policy string, threads int) float64 {
	return number(cell("fig10", "value", "(a) serving rate", policy, fmt.Sprintf("%d threads", threads)))
}

func fig10Cell(panel, x string) float64 { return number(cell("fig10", "value", panel, "MMEM", x)) }

func gen(device, col string) float64 { return number(cell("gen", col, device)) }

func qos(scenario, tenant string) float64 {
	return number(cell("qos", "latency ns", scenario, tenant))
}

// overloadRecession drives remote DDR write-only traffic past its peak.
func overloadRecession() float64 {
	m := topology.TestbedSNC()
	p := m.PathFrom(1, m.DRAMNodes(0)[0])
	peak := p.PeakBandwidth(memsim.WriteOnly)
	at := func(offered float64) float64 {
		res, _ := memsim.SolveOpen([]memsim.OpenFlow{{Placement: memsim.SinglePath(p), Mix: memsim.WriteOnly, Offered: offered}})
		return res[0].Achieved
	}
	return at(1.4*peak) / at(peak)
}

func singleMMEM() memsim.Placement {
	m := topology.TestbedSNC()
	return memsim.SinglePath(m.PathFrom(0, m.DRAMNodes(0)[0]))
}

func interleaveMMEMCXL(n, k int) memsim.Placement {
	m := topology.TestbedSNC()
	return memsim.Interleave(m.PathFrom(0, m.DRAMNodes(0)[0]), m.PathFrom(0, m.CXLNodes()[0]), n, k)
}

// openRead solves one open-loop read-only flow at the offered GB/s.
func openRead(pl memsim.Placement, offered float64) memsim.FlowResult {
	res, _ := memsim.SolveOpen([]memsim.OpenFlow{{Placement: pl, Mix: memsim.ReadOnly, Offered: offered}})
	return res[0]
}

// sweepFit fits the model to a cxlmlc-style loaded-latency sweep, as
// `cxlmlc -path P -mix M | cxlfit` does.
func sweepFit(path func(*topology.Machine) *memsim.Path, mix memsim.Mix) memsim.FitResult {
	curve := mlc.LoadedLatency(path(topology.TestbedSNC()), mix, mlc.DefaultOptions())
	samples := make([]memsim.Sample, len(curve.Points))
	for i, p := range curve.Points {
		samples[i] = memsim.Sample{BandwidthGBps: p.AchievedGBps, LatencyNs: p.LatencyNs}
	}
	fit, err := memsim.Fit(samples)
	if err != nil {
		panic(err)
	}
	return fit
}

var (
	cxlFit = sync.OnceValue(func() memsim.FitResult {
		return sweepFit(func(m *topology.Machine) *memsim.Path { return m.PathFrom(0, m.CXLNodes()[0]) }, memsim.Mix2to1)
	})
	ddrFit = sync.OnceValue(func() memsim.FitResult {
		return sweepFit(func(m *topology.Machine) *memsim.Path { return m.PathFrom(0, m.DRAMNodes(0)[0]) }, memsim.ReadOnly)
	})
)

func TestClaims(t *testing.T) {
	measured := make([]float64, len(claims))
	for i, c := range claims {
		measured[i] = c.measure()
	}
	for i, c := range claims {
		v := measured[i]
		t.Run(c.artifact+"/"+c.quantity, func(t *testing.T) {
			if !(v >= c.lo && v <= c.hi) {
				t.Fatalf("%s: %s = %s, outside band %s (paper: %s)", c.artifact, c.quantity, format(v), band(c), c.paper)
			}
			t.Logf("%s, band %s, headroom %s", format(v), band(c), headroom(c, v))
		})
	}

	old, err := os.ReadFile(experimentsFile)
	if err != nil {
		t.Fatal(err)
	}
	got, err := renderClaims(old, measured)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(experimentsFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	// The measured digits depend on floating-point contraction, so the
	// rendered file is pinned where the goldens are; the bands above
	// hold on every platform.
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("EXPERIMENTS.md comparison is pinned to linux/amd64 (have %s/%s)", runtime.GOOS, runtime.GOARCH)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("%s claim tables are stale; regenerate with: go test . -run TestClaims -update", experimentsFile)
	}
}

// renderClaims replaces the body between each artifact's
// "<!-- claims:<artifact> -->" and "<!-- /claims:<artifact> -->" markers
// with that artifact's generated table.
func renderClaims(doc []byte, measured []float64) ([]byte, error) {
	var artifacts []string
	tables := map[string]*strings.Builder{}
	for i, c := range claims {
		b, ok := tables[c.artifact]
		if !ok {
			artifacts = append(artifacts, c.artifact)
			b = &strings.Builder{}
			b.WriteString("| quantity | paper | measured | band | headroom |\n|---|---|---|---|---|\n")
			tables[c.artifact] = b
		}
		q := c.quantity
		if c.deviation {
			q += " *(deviation)*"
		}
		fmt.Fprintf(b, "| %s | %s | %s | %s | %s |\n", q, c.paper, format(measured[i]), band(c), headroom(c, measured[i]))
	}
	out := string(doc)
	for _, a := range artifacts {
		begin, end := "<!-- claims:"+a+" -->\n", "<!-- /claims:"+a+" -->"
		i := strings.Index(out, begin)
		j := strings.Index(out, end)
		if i < 0 || j < i {
			return nil, fmt.Errorf("%s lacks the %q … %q markers", experimentsFile, strings.TrimSpace(begin), end)
		}
		out = out[:i+len(begin)] + tables[a].String() + out[j:]
	}
	return []byte(out), nil
}

func format(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

func band(c claim) string {
	switch {
	case c.lo == c.hi:
		return "= " + format(c.lo)
	case math.IsInf(c.hi, 1):
		return "≥ " + format(c.lo)
	case math.IsInf(c.lo, -1):
		return "≤ " + format(c.hi)
	}
	return format(c.lo) + " – " + format(c.hi)
}

// headroom is the distance to the nearer band edge as a percentage of
// the measured value.
func headroom(c claim, v float64) string {
	if c.lo == c.hi {
		return "exact"
	}
	return fmt.Sprintf("%.1f%%", 100*min(v-c.lo, c.hi-v)/math.Abs(v))
}
