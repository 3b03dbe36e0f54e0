// trace-replay demonstrates the trace workflow: capture a YCSB operation
// stream once, serialize it, and replay the identical stream against two
// memory configurations — the apples-to-apples comparison methodology the
// paper's artifact release supports. Each replay runs instrumented: a
// per-run obs registry supplies the metrics summary, and -trace writes
// the second (CXL) replay's virtual-time timeline as Chrome trace-event
// JSON for Perfetto.
//
// Run with: go run ./examples/trace-replay [-trace out.json]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"

	"cxlsim/internal/cliutil"
	"cxlsim/internal/kvstore"
	"cxlsim/internal/obs"
	"cxlsim/internal/topology"
	"cxlsim/internal/trace"
	"cxlsim/internal/vmm"
	"cxlsim/internal/workload"
)

func main() {
	traceOut := flag.String("trace", "", "write the CXL replay's Chrome trace-event JSON here")
	flag.Parse()
	const simKeys = 1 << 14

	// Capture 20k YCSB-B operations.
	tr := trace.Record(workload.NewYCSB(workload.YCSBB, simKeys, 7), 20_000)
	stats := tr.Summarize()
	fmt.Printf("captured %d ops: %d reads, %d updates, %d unique keys\n",
		tr.Len(), stats.Reads, stats.Updates, stats.UniqueKeys)

	// Round-trip through the wire format (what you'd write to a file).
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serialized to %d bytes (%.1f bytes/op)\n\n", buf.Len(), float64(buf.Len())/float64(tr.Len()))
	back, err := trace.Read(&buf)
	if err != nil {
		log.Fatal(err)
	}

	// Replay against MMEM-bound and CXL-bound stores, each with its own
	// metrics registry; the second replay also records a timeline.
	run := func(label string, pick func(*topology.Machine) []*topology.Node, otr *obs.Tracer) kvstore.Result {
		m := topology.Testbed()
		alloc := vmm.NewAllocator(m)
		st, err := kvstore.NewStore(m, alloc, kvstore.StoreConfig{
			WorkingSetBytes: 100 << 30, SimKeys: simKeys, MaxMemoryFrac: 1,
			Policy: vmm.Bind{Nodes: pick(m)},
		})
		if err != nil {
			log.Fatal(err)
		}
		res := kvstore.Run(st, alloc, kvstore.RunConfig{
			Mix: workload.YCSBB, Ops: 10_000, Seed: 7,
			Source:  trace.NewReplayer(back),
			Metrics: obs.NewRegistry(),
			Tracer:  otr,
		})
		fmt.Printf("%-5s %8.0f ops/s   p50 %5.1f µs   p99 %5.1f µs\n",
			label, res.ThroughputOpsPerSec,
			res.Latency.Percentile(50)/1e3, res.Latency.Percentile(99)/1e3)
		return res
	}
	fmt.Println("replaying the identical stream:")
	run("MMEM", func(m *topology.Machine) []*topology.Node { return m.DRAMNodes(0) }, nil)
	otr := obs.NewTracer()
	res := run("CXL", func(m *topology.Machine) []*topology.Node { return m.CXLNodes() }, otr)

	// Three-line metrics summary of the CXL replay.
	fmt.Printf("\nops completed:  %d\n", res.Latency.Count())
	fmt.Printf("migrated bytes: %d\n", res.Migrated)
	fmt.Printf("p99 latency:    %.1f µs\n", res.Latency.Percentile(99)/1e3)

	if *traceOut != "" {
		if err := cliutil.WriteFile(*traceOut, otr.WriteJSON); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s (%d events) — open at https://ui.perfetto.dev\n", *traceOut, otr.Len())
	}
}
