// Package topology assembles memsim resources into machines shaped like
// the paper's testbed (§2.4): dual-socket Sapphire Rapids servers with
// four SNC domains per socket, two AsteraLabs A1000 CXL expanders on
// socket 0, and a baseline server without CXL cards.
//
// A Machine hands out memsim.Paths from a CPU location (socket) to a
// memory node; paths to the same node share the underlying resources, so
// contention composes across applications and policies automatically.
package topology

import (
	"fmt"

	"cxlsim/internal/memsim"
)

// FabricHopNs is the one-way latency between two servers on the testbed
// fabric (§4.1.1 measures a 10 µs client↔server round trip on the
// 100 Gbps network; one hop is half of that). It is also the minimum
// cross-node latency, which makes it the conservative lookahead bound
// for sharded multi-node simulation: no node can affect another sooner
// than one hop.
const FabricHopNs = 5_000.0

// NodeKind distinguishes memory technologies behind a NUMA node.
type NodeKind int

// Node kinds.
const (
	DRAM NodeKind = iota
	CXL
)

// String names the kind.
func (k NodeKind) String() string {
	if k == CXL {
		return "cxl"
	}
	return "dram"
}

// Node is one memory node: a pool of capacity behind one device resource.
// With SNC enabled a socket exposes four DRAM nodes (one per sub-NUMA
// domain); with SNC disabled it exposes one. Each CXL expander is its own
// CPU-less node, as Linux presents CXL 1.1 Type-3 memory.
type Node struct {
	ID       int
	Name     string
	Kind     NodeKind
	Socket   int
	Capacity uint64 // bytes

	res *memsim.Resource
}

// Resource exposes the backing device (for PCM counters and ablations).
func (n *Node) Resource() *memsim.Resource { return n.res }

// Config describes a machine to build.
type Config struct {
	Name       string
	Sockets    int
	SNC        bool // SNC-4 on each socket when true
	CXLSocket0 int  // number of A1000 devices attached to socket 0
}

// Machine is a built server.
type Machine struct {
	Config Config
	Nodes  []*Node

	upi   *memsim.Resource         // cross-socket interconnect (shared)
	rsf   map[int]*memsim.Resource // per-CXL-node remote snoop filter stage
	paths map[[2]int]*memsim.Path  // (socket, nodeID) → path cache
	ssd   *memsim.Resource         // local NVMe for spill paths
}

// New builds a machine from a config.
func New(cfg Config) *Machine {
	if cfg.Sockets < 1 {
		panic("topology: machine needs at least one socket")
	}
	if cfg.CXLSocket0 < 0 {
		panic("topology: negative CXL device count")
	}
	m := &Machine{
		Config: cfg,
		rsf:    map[int]*memsim.Resource{},
		paths:  map[[2]int]*memsim.Path{},
		ssd:    memsim.NewSSDStage(cfg.Name + "/ssd"),
	}
	if cfg.Sockets > 1 {
		m.upi = memsim.NewUPILink(cfg.Name + "/upi")
	}
	id := 0
	for s := 0; s < cfg.Sockets; s++ {
		if cfg.SNC {
			for d := 0; d < 4; d++ {
				name := fmt.Sprintf("%s/s%d/snc%d", cfg.Name, s, d)
				m.Nodes = append(m.Nodes, &Node{
					ID: id, Name: name, Kind: DRAM, Socket: s,
					Capacity: memsim.SNCDomainCapacityBytes,
					res:      memsim.NewDDRDomain(name),
				})
				id++
			}
		} else {
			name := fmt.Sprintf("%s/s%d/dram", cfg.Name, s)
			m.Nodes = append(m.Nodes, &Node{
				ID: id, Name: name, Kind: DRAM, Socket: s,
				Capacity: memsim.SocketDDRCapacityBytes,
				res:      memsim.NewSocketDDR(name),
			})
			id++
		}
	}
	for c := 0; c < cfg.CXLSocket0; c++ {
		name := fmt.Sprintf("%s/s0/cxl%d", cfg.Name, c)
		n := &Node{
			ID: id, Name: name, Kind: CXL, Socket: 0,
			Capacity: memsim.CXLDeviceCapacityBytes,
			res:      memsim.NewCXLDevice(name),
		}
		m.Nodes = append(m.Nodes, n)
		m.rsf[n.ID] = memsim.NewRSFStage(name + "/rsf")
		id++
	}
	return m
}

// Testbed builds one of the paper's CXL experiment servers with SNC
// disabled (the configuration for the capacity-bound experiments, §4).
func Testbed() *Machine {
	return New(Config{Name: "cxlsrv", Sockets: 2, SNC: false, CXLSocket0: 2})
}

// TestbedSNC builds a CXL server with SNC-4 enabled (the configuration
// for the raw-performance §3 and bandwidth-bound §5 experiments).
func TestbedSNC() *Machine {
	return New(Config{Name: "cxlsrv", Sockets: 2, SNC: true, CXLSocket0: 2})
}

// Node returns the node with the given ID.
func (m *Machine) Node(id int) *Node {
	if id < 0 || id >= len(m.Nodes) {
		panic(fmt.Sprintf("topology: no node %d", id))
	}
	return m.Nodes[id]
}

// DRAMNodes returns the DRAM nodes on one socket.
func (m *Machine) DRAMNodes(socket int) []*Node {
	var out []*Node
	for _, n := range m.Nodes {
		if n.Kind == DRAM && n.Socket == socket {
			out = append(out, n)
		}
	}
	return out
}

// CXLNodes returns all CXL nodes.
func (m *Machine) CXLNodes() []*Node {
	var out []*Node
	for _, n := range m.Nodes {
		if n.Kind == CXL {
			out = append(out, n)
		}
	}
	return out
}

// PathFrom returns the memory path from a CPU on the given socket to the
// node. Paths are cached; repeated calls return the same *Path so flow
// contention composes.
func (m *Machine) PathFrom(socket int, n *Node) *memsim.Path {
	if socket < 0 || socket >= m.Config.Sockets {
		panic(fmt.Sprintf("topology: no socket %d", socket))
	}
	key := [2]int{socket, n.ID}
	if p, ok := m.paths[key]; ok {
		return p
	}
	var p *memsim.Path
	local := socket == n.Socket
	switch {
	case local:
		p = memsim.NewPath(fmt.Sprintf("s%d→%s", socket, n.Name), n.res)
	case n.Kind == DRAM:
		p = memsim.NewPath(fmt.Sprintf("s%d→%s", socket, n.Name), m.upi, n.res)
	default: // remote CXL: UPI + remote snoop filter clamp + device
		p = memsim.NewPath(fmt.Sprintf("s%d→%s", socket, n.Name), m.upi, m.rsf[n.ID], n.res)
	}
	m.paths[key] = p
	return p
}

// SSDPath returns the path to the machine's local NVMe SSD (spill
// traffic). The CPU socket does not materially change SSD latency.
func (m *Machine) SSDPath() *memsim.Path {
	key := [2]int{-1, -1}
	if p, ok := m.paths[key]; ok {
		return p
	}
	p := memsim.NewPath(m.Config.Name+"/ssdpath", m.ssd)
	m.paths[key] = p
	return p
}

// Resources lists every device/link resource in the machine, for counter
// collection.
func (m *Machine) Resources() []*memsim.Resource {
	var out []*memsim.Resource
	for _, n := range m.Nodes {
		out = append(out, n.res)
	}
	if m.upi != nil {
		out = append(out, m.upi)
	}
	for _, r := range m.rsf {
		out = append(out, r)
	}
	out = append(out, m.ssd)
	return out
}

// UPI exposes the cross-socket link (nil on single-socket machines).
func (m *Machine) UPI() *memsim.Resource { return m.upi }
