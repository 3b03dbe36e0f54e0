package costmodel_test

import (
	"fmt"

	"cxlsim/internal/costmodel"
	"cxlsim/internal/memsim"
	"cxlsim/internal/topology"
)

// Example derives Rd and Rc the way §6 prescribes: time the same
// capacity-bound work unit (100 µs of CPU plus a 4 MB scan, a
// Spark-task-sized quantum) with the working set in main memory, in CXL
// memory and spilled to SSD, and normalize each throughput to the SSD
// case (Ps = 1). The model then needs only C and Rt.
func Example() {
	m := topology.Testbed()
	const (
		cpuNs     = 100_000.0
		unitBytes = 4e6
		threads   = 8
	)
	unitTime := func(p *memsim.Path, accessBytes float64) float64 {
		res, _ := memsim.SolveClosed([]memsim.ClosedFlow{{
			Placement: memsim.SinglePath(p), Mix: memsim.ReadOnly,
			Threads: threads, MLP: 8, AccessBytes: accessBytes,
		}})
		return cpuNs + res[0].Latency + unitBytes/(res[0].Achieved/threads)
	}
	// Memory scans move cachelines; SSD reads move 128 KB blocks.
	ssd := unitTime(m.SSDPath(), 128<<10)
	p := costmodel.Params{
		Rd: ssd / unitTime(m.PathFrom(0, m.DRAMNodes(0)[0]), 64),
		Rc: ssd / unitTime(m.PathFrom(0, m.CXLNodes()[0]), 64),
		C:  2, Rt: 1.1,
	}
	ratio, err := p.ServerRatio()
	if err != nil {
		panic(err)
	}
	saving, err := p.TCOSaving()
	if err != nil {
		panic(err)
	}
	fmt.Printf("Rd=%.2f Rc=%.2f C=%.0f Rt=%.1f\n", p.Rd, p.Rc, p.C, p.Rt)
	fmt.Printf("servers %.2f%% of baseline, TCO saving %.2f%%\n", ratio*100, saving*100)
	// Output:
	// Rd=15.88 Rc=6.54 C=2 Rt=1.1
	// servers 68.87% of baseline, TCO saving 24.24%
}
