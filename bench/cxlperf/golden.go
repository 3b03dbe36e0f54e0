package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"strings"

	"cxlsim/internal/core"
	"cxlsim/internal/kvstore"
)

// testdata holds the committed golden digests, one "<id> <digest>" line
// per experiment table or YCSB cell: testdata/<workload>.seed<N>, and
// testdata/<workload>.quick.seed<N> for tiny mode.
//
//go:embed testdata
var testdata embed.FS

func embeddedGoldens() fs.FS {
	sub, err := fs.Sub(testdata, "testdata")
	if err != nil {
		panic(err) // the embedded directory always exists
	}
	return sub
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// tableDigest digests an experiment's rendered table, exactly as
// cxlbench prints it.
func tableDigest(rep *core.Report) string {
	var b bytes.Buffer
	rep.WriteTable(&b)
	return digest(b.Bytes())
}

// resultDigest digests every simulated statistic of one kvstore.Run, at
// full precision.
func resultDigest(r kvstore.Result) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	b.WriteString(f(r.ThroughputOpsPerSec))
	for _, p := range []float64{50, 90, 99, 99.9} {
		b.WriteString(" " + f(r.Latency.Percentile(p)) + " " + f(r.ReadLatency.Percentile(p)))
	}
	fmt.Fprintf(&b, " %d %d %s %s %d %d %d %d", r.Latency.Count(), r.ReadLatency.Count(),
		f(r.Latency.Mean()), f(r.HitRate), r.Migrated, r.Timeouts, r.Retries, r.Failed)
	return digest([]byte(b.String()))
}

// digestCheck checks each repetition's digests against the golden for
// the seed or, for an id or seed without one, against the first
// repetition. Every id checked is one attempted operation; a mismatch is
// one failed operation.
type digestCheck struct {
	e        *env
	workload string
	want     map[string]string
	golden   bool
}

func (e *env) digestCheck(workload string) *digestCheck {
	c := &digestCheck{e: e, workload: workload, want: map[string]string{}}
	b, err := fs.ReadFile(e.goldens, goldenName(workload, e.quick, e.seed))
	if err != nil {
		return c
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 {
			c.want[f[0]] = f[1]
		}
	}
	c.golden = true
	return c
}

func goldenName(workload string, quick bool, seed int64) string {
	if quick {
		workload += ".quick"
	}
	return fmt.Sprintf("%s.seed%d", workload, seed)
}

func (c *digestCheck) check(got map[string]string) {
	ids := make([]string, 0, len(got))
	for id := range got {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fresh := len(c.want) == 0
	for _, id := range ids {
		want, ok := c.want[id]
		if !ok {
			c.want[id], want = got[id], got[id]
		}
		c.e.tally.check(got[id] == want)
		if got[id] != want {
			fmt.Fprintf(os.Stderr, "cxlperf: %s %s digest %s, want %s\n", c.workload, id, got[id], want)
		}
	}
	if fresh && !c.golden {
		// No golden for this seed: print the digests so they can be
		// committed.
		for _, id := range ids {
			fmt.Fprintf(c.e.out, "golden %s %s %s\n", goldenName(c.workload, c.e.quick, c.e.seed), id, got[id])
		}
	}
}
