package workload

import (
	"fmt"
	"math/rand"
)

// OpKind is a YCSB operation type.
type OpKind int

// YCSB operation kinds.
const (
	OpRead OpKind = iota
	OpUpdate
	OpInsert
	OpScan
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "READ"
	case OpUpdate:
		return "UPDATE"
	case OpInsert:
		return "INSERT"
	case OpScan:
		return "SCAN"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one generated YCSB operation.
type Op struct {
	Kind OpKind
	Key  uint64
}

// YCSBMix is an operation mix: fractions must sum to 1.
type YCSBMix struct {
	Name                       string
	Read, Update, Insert, Scan float64
	Distribution               string // "zipfian" or "latest"
	DefaultValueSize           int    // bytes; the paper uses 1 KB
}

// The four workloads the paper evaluates (§4.1.1).
var (
	// YCSBA is update-heavy: 50% read / 50% update, Zipfian.
	YCSBA = YCSBMix{Name: "YCSB-A", Read: 0.5, Update: 0.5, Distribution: "zipfian", DefaultValueSize: 1024}
	// YCSBB is read-heavy: 95% read / 5% update, Zipfian.
	YCSBB = YCSBMix{Name: "YCSB-B", Read: 0.95, Update: 0.05, Distribution: "zipfian", DefaultValueSize: 1024}
	// YCSBC is read-only, Zipfian.
	YCSBC = YCSBMix{Name: "YCSB-C", Read: 1.0, Distribution: "zipfian", DefaultValueSize: 1024}
	// YCSBD reads the latest inserts: 95% read / 5% insert, latest.
	YCSBD = YCSBMix{Name: "YCSB-D", Read: 0.95, Insert: 0.05, Distribution: "latest", DefaultValueSize: 1024}
)

// StandardMixes lists the paper's four workloads in figure order.
func StandardMixes() []YCSBMix { return []YCSBMix{YCSBA, YCSBB, YCSBC, YCSBD} }

// YCSB generates a stream of operations for one workload mix.
type YCSB struct {
	mix    YCSBMix
	keys   Generator
	latest *Latest // non-nil when Distribution == "latest"
	rng    *rand.Rand
	n      uint64
}

// NewYCSB builds a YCSB op generator over records [0, n).
func NewYCSB(mix YCSBMix, n uint64, seed int64) *YCSB {
	y := &YCSB{mix: mix, rng: rand.New(rand.NewSource(seed)), n: n}
	switch mix.Distribution {
	case "latest":
		y.latest = NewLatest(n, seed+1)
		y.keys = y.latest
	case "zipfian", "":
		y.keys = NewScrambledZipfian(n, seed+1)
	default:
		panic(fmt.Sprintf("workload: unknown distribution %q", mix.Distribution))
	}
	return y
}

// ScrambledKeys returns the generator behind y's key stream when the mix
// draws exactly one key from it per op: a Zipfian distribution and no
// inserts. That generator is seeded apart from the op kinds, so a caller
// that throws the op kinds away (a warm-up) may draw the keys straight
// from it, in batches with Fill, and see the keys Next would return.
// Drawing from it desynchronizes y, which the caller must not use after.
// Nil for the latest distribution and for mixes with inserts.
func (y *YCSB) ScrambledKeys() *ScrambledZipfian {
	z, ok := y.keys.(*ScrambledZipfian)
	if !ok || y.mix.Insert != 0 {
		return nil
	}
	return z
}

// Mix returns the workload definition.
func (y *YCSB) Mix() YCSBMix { return y.mix }

// Next produces the next operation.
func (y *YCSB) Next() Op {
	r := y.rng.Float64()
	switch {
	case r < y.mix.Read:
		return Op{Kind: OpRead, Key: y.keys.Next()}
	case r < y.mix.Read+y.mix.Update:
		return Op{Kind: OpUpdate, Key: y.keys.Next()}
	case r < y.mix.Read+y.mix.Update+y.mix.Insert:
		if y.latest != nil {
			return Op{Kind: OpInsert, Key: y.latest.Insert()}
		}
		// Inserts under non-latest distributions append at the end.
		y.n++
		return Op{Kind: OpInsert, Key: y.n - 1}
	default:
		return Op{Kind: OpScan, Key: y.keys.Next()}
	}
}
