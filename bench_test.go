// Package cxlsim's root benchmark harness regenerates every table and
// figure in the paper's evaluation. Each benchmark prints the rows the
// paper reports under -v (`go test -v -bench=. -benchmem`); without -v
// the output is pure benchmark result lines, parseable by benchstat and
// cmd/benchdiff. The wall-clock numbers testing.B reports measure the
// simulator, while the printed tables carry the reproduced results;
// claims_test.go checks those results against the paper.
package cxlsim_test

import (
	"os"
	"testing"

	"cxlsim/internal/core"
	"cxlsim/internal/kvstore"
	"cxlsim/internal/workload"
)

// report runs a core experiment once per benchmark (printing the table
// on the first iteration, under -v only — table output mid-benchmark
// splits the testing framework's result lines, which breaks
// benchstat/benchdiff parsing).
func report(b *testing.B, id string, opt core.Options) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := core.Run(id, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			rep.WriteTable(os.Stdout)
		}
	}
}

// opts returns full fidelity on the first iteration and quick mode
// afterwards, so -benchtime doesn't multiply the heavyweight runs.
func opts(i int) core.Options {
	return core.Options{Quick: i > 0}
}

// BenchmarkFig3LoadedLatency regenerates Fig. 3: loaded-latency curves
// for MMEM / MMEM-r / CXL / CXL-r across read:write mixes.
func BenchmarkFig3LoadedLatency(b *testing.B) {
	report(b, "fig3", core.Options{})
}

// BenchmarkFig4DistanceComparison regenerates Fig. 4: per-mix distance
// comparison plus the random-pattern panels.
func BenchmarkFig4DistanceComparison(b *testing.B) {
	report(b, "fig4", core.Options{})
}

// BenchmarkFig5KeyDBYCSB regenerates Fig. 5: KeyDB YCSB throughput and
// latency across the seven Table-1 configurations.
func BenchmarkFig5KeyDBYCSB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := core.Run("fig5", opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			rep.WriteTable(os.Stdout)
		}
	}
}

// BenchmarkFig7SparkTPCH regenerates Fig. 7: TPC-H execution time and
// shuffle share across cluster configurations.
func BenchmarkFig7SparkTPCH(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := core.Run("fig7", opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			rep.WriteTable(os.Stdout)
		}
	}
}

// BenchmarkFig8CXLOnlyKeyDB regenerates Fig. 8: KeyDB YCSB-C bound
// entirely to CXL vs MMEM.
func BenchmarkFig8CXLOnlyKeyDB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := core.Run("fig8", opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			rep.WriteTable(os.Stdout)
		}
	}
}

// BenchmarkFig10LLMInference regenerates Fig. 10: serving rate vs thread
// count, per-backend bandwidth, and KV-cache bandwidth.
func BenchmarkFig10LLMInference(b *testing.B) {
	report(b, "fig10", core.Options{})
}

// BenchmarkTable2ProcessorSeries regenerates Table 2 with the
// provisioning-gap analysis.
func BenchmarkTable2ProcessorSeries(b *testing.B) {
	report(b, "table2", core.Options{})
}

// BenchmarkTable3CostModel regenerates Table 3 and the §6 worked example.
func BenchmarkTable3CostModel(b *testing.B) {
	report(b, "table3", core.Options{})
}

// BenchmarkSec43ElasticRevenue regenerates the §4.3 revenue analysis.
func BenchmarkSec43ElasticRevenue(b *testing.B) {
	report(b, "sec43", core.Options{})
}

// BenchmarkCXL2Pooling runs the §7 extension: pooled-capacity economics
// and noisy-neighbor interference on a CXL 2.0 multi-headed device.
func BenchmarkCXL2Pooling(b *testing.B) {
	report(b, "pool", core.Options{})
}

// BenchmarkShardedYCSB runs the 4-node KeyDB cluster on 4 shards: the
// end-to-end cost of the conservative-lookahead kernel including the
// per-epoch fan-out/merge. Output is byte-identical to a 1-shard run
// (see internal/kvstore cluster tests); this gates its wall-clock.
func BenchmarkShardedYCSB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := kvstore.RunCluster(kvstore.ClusterConfig{
			Nodes:      4,
			Shards:     4,
			Config:     kvstore.ConfInter11,
			Deploy:     kvstore.DeployOptions{SimKeys: 1 << 12},
			Mix:        workload.YCSBB,
			OpsPerNode: 2_000,
			Seed:       42,
			RemoteFrac: 0.15,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
