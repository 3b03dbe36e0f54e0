package kvstore

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http/httptest"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cxlsim/internal/obs"
	"cxlsim/internal/resp"
	"cxlsim/internal/spill"
	"cxlsim/internal/topology"
	"cxlsim/internal/vmm"
)

// respStore builds a small priced store for RESP backend tests.
func respStore(t *testing.T) *Store {
	t.Helper()
	m := topology.Testbed()
	st, err := NewStore(m, vmm.NewAllocator(m), StoreConfig{
		WorkingSetBytes: 1 << 30,
		SimKeys:         1 << 10,
		MaxMemoryFrac:   1,
		Policy:          vmm.Bind{Nodes: m.DRAMNodes(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func openTier(t *testing.T, dir string) *spill.Dir {
	t.Helper()
	return openTierOpts(t, spill.Options{Dir: dir})
}

// openDeferredTier opens the tier as cxlserve does: no automatic fsync,
// so writes become durable only at the backend's Commit.
func openDeferredTier(t *testing.T, dir string) *spill.Dir {
	t.Helper()
	return openTierOpts(t, spill.Options{Dir: dir, GroupCommit: true})
}

func openTierOpts(t *testing.T, opts spill.Options) *spill.Dir {
	t.Helper()
	d, _, err := spill.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// TestRESPBackendSemantics covers the command semantics of the
// memory-only backend: set/get/del/exists/incr/mget/mset.
func TestRESPBackendSemantics(t *testing.T) {
	b := NewRESPBackend(respStore(t), nil)

	if _, ok, err := b.Get([]byte("nope")); ok || err != nil {
		t.Fatalf("get of missing key: ok=%v err=%v", ok, err)
	}
	if err := b.Set([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := b.Get([]byte("k")); !ok || string(v) != "v1" {
		t.Fatalf("get after set: %q ok=%v", v, ok)
	}
	if err := b.Set([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := b.Get([]byte("k")); string(v) != "v2" {
		t.Fatalf("overwrite lost: %q", v)
	}

	if n, _ := b.Exists([][]byte{[]byte("k"), []byte("nope"), []byte("k")}); n != 2 {
		t.Fatalf("exists=%d, want 2", n)
	}

	for want := int64(1); want <= 3; want++ {
		n, err := b.Incr([]byte("ctr"))
		if err != nil || n != want {
			t.Fatalf("incr=%d err=%v, want %d", n, err, want)
		}
	}
	if _, err := b.Incr([]byte("k")); err == nil {
		t.Fatal("incr of non-integer value should fail")
	}

	if err := b.MSet([][]byte{[]byte("a"), []byte("1"), []byte("b"), []byte("2")}); err != nil {
		t.Fatal(err)
	}
	got, err := b.MGet([][]byte{[]byte("a"), []byte("nope"), []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got[0]) != "1" || got[1] != nil || string(got[2]) != "2" {
		t.Fatalf("mget: %q", got)
	}

	if n, _ := b.Del([][]byte{[]byte("a"), []byte("nope"), []byte("b")}); n != 2 {
		t.Fatalf("del=%d, want 2", n)
	}
	if n, _ := b.Exists([][]byte{[]byte("a")}); n != 0 {
		t.Fatal("key survived del")
	}

	// Memory-only mode accepts empty keys (Redis-legal).
	if err := b.Set(nil, []byte("empty")); err != nil {
		t.Fatalf("empty key in memory mode: %v", err)
	}
}

// TestRESPBackendDurableRecovery pins the restart story: values written
// through one backend are readable from a fresh process (new tier, new
// backend) via disk read-through, and deletes persist too. It runs on a
// tier that fsyncs every append and on a deferred-sync tier that
// commits before Close.
func TestRESPBackendDurableRecovery(t *testing.T) {
	t.Run("sync-every", func(t *testing.T) { testDurableRecovery(t, openTier, false) })
	t.Run("deferred-sync", func(t *testing.T) { testDurableRecovery(t, openDeferredTier, true) })
}

func testDurableRecovery(t *testing.T, open func(*testing.T, string) *spill.Dir, commit bool) {
	dir := t.TempDir()
	tier := open(t, dir)
	b := NewRESPBackend(respStore(t), tier)

	if err := b.Set([]byte("stay"), []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	if err := b.Set([]byte("gone"), []byte("deleted")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Del([][]byte{[]byte("gone")}); err != nil {
		t.Fatal(err)
	}
	// Empty keys are unrepresentable in the spill log: durable mode
	// must reject them rather than silently lose durability.
	if err := b.Set(nil, []byte("x")); err == nil {
		t.Fatal("durable mode accepted an empty key")
	}
	if commit {
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
		if st := tier.Stats(); st.Fsyncs != 1 || st.RecordsWritten != 3 {
			t.Fatalf("commit: %d fsyncs for %d records, want 1 for 3", st.Fsyncs, st.RecordsWritten)
		}
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": everything rebuilt from the directory.
	tier2 := openTier(t, dir)
	b2 := NewRESPBackend(respStore(t), tier2)
	v, ok, err := b2.Get([]byte("stay"))
	if err != nil || !ok || string(v) != "persisted" {
		t.Fatalf("recovered get: %q ok=%v err=%v", v, ok, err)
	}
	if _, ok, _ := b2.Get([]byte("gone")); ok {
		t.Fatal("deleted key resurrected after restart")
	}
	if n, _ := b2.Exists([][]byte{[]byte("stay"), []byte("gone")}); n != 1 {
		t.Fatalf("exists after restart=%d, want 1", n)
	}
}

// TestRESPBackendBrownout pins the wire-level brownout contract: writes
// shed with -BUSY, disk-resident reads answer -LOADING, memory-resident
// reads and index-only EXISTS keep serving.
func TestRESPBackendBrownout(t *testing.T) {
	dir := t.TempDir()
	tier := openTier(t, dir)
	b := NewRESPBackend(respStore(t), tier)
	reg := obs.NewRegistry()
	b.Instrument(reg)

	degraded := false
	b.SetDegraded(func() bool { return degraded })

	if err := b.Set([]byte("hot"), []byte("in-memory")); err != nil {
		t.Fatal(err)
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
	tier2 := openTier(t, dir)
	b2 := NewRESPBackend(respStore(t), tier2)
	b2.SetDegraded(func() bool { return degraded })
	reg2 := obs.NewRegistry()
	b2.Instrument(reg2)
	degraded = true

	// Writes shed with -BUSY.
	err := b2.Set([]byte("k"), []byte("v"))
	var re resp.ReplyError
	if !asReplyError(err, &re) || !strings.HasPrefix(string(re), "BUSY") {
		t.Fatalf("browned-out set: %v, want -BUSY", err)
	}
	if _, err := b2.Del([][]byte{[]byte("hot")}); err == nil {
		t.Fatal("browned-out del should fail")
	}
	if got := b2.ShedWrites(); got != 2 {
		t.Fatalf("shed writes=%d, want 2", got)
	}
	if f, ok := reg2.Snapshot().Find(obs.MetricRESPShedWrites); !ok || f.Metrics[0].Value != 2 {
		t.Fatal("resp_shed_writes_total not incremented")
	}

	// Disk-resident read answers -LOADING...
	_, _, err = b2.Get([]byte("hot"))
	if !asReplyError(err, &re) || !strings.HasPrefix(string(re), "LOADING") {
		t.Fatalf("browned-out disk read: %v, want -LOADING", err)
	}
	// ...but index-only EXISTS still serves.
	if n, err := b2.Exists([][]byte{[]byte("hot")}); err != nil || n != 1 {
		t.Fatalf("exists during brownout: n=%d err=%v", n, err)
	}
	// Memory-resident reads keep serving on the original backend.
	if v, ok, err := b.Get([]byte("hot")); err != nil || !ok || string(v) != "in-memory" {
		t.Fatalf("memory-resident read during brownout: %q ok=%v err=%v", v, ok, err)
	}

	// Heal: the shed write now lands and the disk read recovers.
	degraded = false
	if err := b2.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := b2.Get([]byte("hot")); !ok || string(v) != "in-memory" {
		t.Fatalf("read-through after heal: %q ok=%v", v, ok)
	}
}

// TestRESPBackendMultiKeyAllOrNothing: an invalid argument anywhere in
// MSET or DEL rejects the whole command before any key is written or
// deleted, in memory and on disk.
func TestRESPBackendMultiKeyAllOrNothing(t *testing.T) {
	tier := openTier(t, t.TempDir())
	b := NewRESPBackend(respStore(t), tier)

	// The empty key is unrepresentable in durable mode.
	if err := b.MSet([][]byte{[]byte("a"), []byte("1"), nil, []byte("2")}); err == nil {
		t.Fatal("durable MSET accepted an empty key")
	}
	if _, ok, _ := b.Get([]byte("a")); ok || tier.Has([]byte("a")) {
		t.Fatal("rejected MSET still set its first key")
	}
	big := make([]byte, spill.MaxValLen+1)
	if err := b.MSet([][]byte{[]byte("a"), []byte("1"), []byte("b"), big}); err == nil {
		t.Fatal("MSET accepted an oversized value")
	}
	if _, ok, _ := b.Get([]byte("a")); ok || tier.Has([]byte("a")) {
		t.Fatal("MSET rejected for an oversized value still set its first key")
	}

	if err := b.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Del([][]byte{[]byte("k"), nil}); err == nil {
		t.Fatal("durable DEL accepted an empty key")
	}
	if v, ok, _ := b.Get([]byte("k")); !ok || string(v) != "v" || !tier.Has([]byte("k")) {
		t.Fatal("rejected DEL still deleted its first key")
	}
}

func asReplyError(err error, out *resp.ReplyError) bool {
	re, ok := err.(resp.ReplyError)
	if ok {
		*out = re
	}
	return ok
}

// TestRESPBackendVirtualClock pins the virtual-time bridge: every
// command advances the simulated clock, epochs resolve on cadence, and
// INFO surfaces the bridge.
func TestRESPBackendVirtualClock(t *testing.T) {
	b := NewRESPBackend(respStore(t), nil)
	reg := obs.NewRegistry()
	b.Instrument(reg)

	if b.VirtualNow() != 0 {
		t.Fatal("virtual clock should start at zero")
	}
	key := []byte("k")
	if err := b.Set(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	after1 := b.VirtualNow()
	if after1 <= 0 {
		t.Fatal("set did not advance the virtual clock")
	}
	for i := 0; i < 5000; i++ {
		b.Get(key)
	}
	after2 := b.VirtualNow()
	if after2 <= after1 {
		t.Fatal("reads did not advance the virtual clock")
	}
	// 5000 DRAM reads at ~hundreds of ns each crosses the 10 ms epoch
	// boundary at least once, so lastEpoch must have moved.
	if after2 > epochNs && b.lastEpoch == 0 {
		t.Fatal("epoch never resolved despite crossing the cadence")
	}

	snap := reg.Snapshot()
	if f, ok := snap.Find(obs.MetricRESPVirtualTimeNs); !ok || f.Metrics[0].Value <= 0 {
		t.Fatal("resp_virtual_time_ns gauge not published")
	}
	if f, ok := snap.Find(obs.MetricRESPServiceNs); !ok || len(f.Metrics) == 0 {
		t.Fatal("resp_command_service_ns histogram not published")
	}

	info := b.Info()
	for _, want := range []string{"virtual_time_ns:", "db0:keys=1", "hit_rate:"} {
		if !strings.Contains(info, want) {
			t.Fatalf("INFO missing %q:\n%s", want, info)
		}
	}
}

// TestRESPKeysMatchesInfoAfterReadThrough: a GET that reads a key
// through from the spill log makes it memory-resident, and resp_keys
// must count it exactly as INFO's keyspace line does.
func TestRESPKeysMatchesInfoAfterReadThrough(t *testing.T) {
	dir := t.TempDir()
	tier := openTier(t, dir)
	if err := NewRESPBackend(respStore(t), tier).Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
	b := NewRESPBackend(respStore(t), openTier(t, dir))
	reg := obs.NewRegistry()
	b.Instrument(reg)
	if v, ok, err := b.Get([]byte("k")); !ok || err != nil || string(v) != "v" {
		t.Fatalf("read-through get: %q ok=%v err=%v", v, ok, err)
	}
	m := regexp.MustCompile(`db0:keys=(\d+)`).FindStringSubmatch(b.Info())
	if m == nil {
		t.Fatalf("INFO has no keyspace line:\n%s", b.Info())
	}
	infoKeys, _ := strconv.Atoi(m[1])
	f, _ := reg.Snapshot().Find(obs.MetricRESPKeys)
	if len(f.Metrics) != 1 || f.Metrics[0].Value != float64(infoKeys) || infoKeys != 1 {
		t.Fatalf("resp_keys = %+v, INFO db0:keys=%d; want both 1", f.Metrics, infoKeys)
	}
}

// TestRESPBackendDeferredSyncMultiKey: on a deferred-sync tier, an MSET
// of N pairs and a DEL of N keys each append N records and cost at most
// one fsync, taken at Commit; a Commit with nothing unsynced costs none;
// INFO reports the records and fsyncs.
func TestRESPBackendDeferredSyncMultiKey(t *testing.T) {
	const n = 8
	tier := openDeferredTier(t, t.TempDir())
	b := NewRESPBackend(respStore(t), tier)
	var pairs, keys [][]byte
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		pairs = append(pairs, k, []byte("v"))
		keys = append(keys, k)
	}
	step := func(name string, op func() error) {
		t.Helper()
		before := tier.Stats()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := tier.Stats().Fsyncs - before.Fsyncs; got != 0 {
			t.Fatalf("%s fsynced %d times before Commit", name, got)
		}
		if err := b.Commit(); err != nil {
			t.Fatalf("%s commit: %v", name, err)
		}
		after := tier.Stats()
		if recs := after.RecordsWritten - before.RecordsWritten; recs != n {
			t.Fatalf("%s appended %d records, want %d", name, recs, n)
		}
		if got := after.Fsyncs - before.Fsyncs; got > 1 {
			t.Fatalf("%s cost %d fsyncs, want at most 1", name, got)
		}
	}
	step("MSET", func() error { return b.MSet(pairs) })
	step("DEL", func() error {
		if got, err := b.Del(keys); err != nil || got != n {
			return fmt.Errorf("deleted %d of %d: %v", got, n, err)
		}
		return nil
	})
	before := tier.Stats().Fsyncs
	if err := b.Commit(); err != nil || tier.Stats().Fsyncs != before {
		t.Fatalf("idle Commit: err=%v fsyncs %d -> %d", err, before, tier.Stats().Fsyncs)
	}
	st := tier.Stats()
	for _, want := range []string{
		fmt.Sprintf("spill_records_written:%d\r\n", st.RecordsWritten),
		fmt.Sprintf("spill_fsyncs:%d\r\n", st.Fsyncs),
	} {
		if !strings.Contains(b.Info(), want) {
			t.Fatalf("INFO missing %q:\n%s", want, b.Info())
		}
	}
}

// TestRESPBackendConcurrentScrape scrapes /metrics while clients write
// and read a spill-backed backend, as cxlserve does: every
// function-backed family reads its owner's state safely (run under
// -race), and the final scrape agrees with the owners' counts.
func TestRESPBackendConcurrentScrape(t *testing.T) {
	concurrentScrape(t, openTier(t, t.TempDir()), false)
}

// TestRESPBackendConcurrentCommit is TestRESPBackendConcurrentScrape on a
// deferred-sync tier with every client committing after its SET, so
// Commit's fsync runs outside the mutex alongside Sets, Gets and scrapes.
func TestRESPBackendConcurrentCommit(t *testing.T) {
	concurrentScrape(t, openDeferredTier(t, t.TempDir()), true)
}

func concurrentScrape(t *testing.T, tier *spill.Dir, commit bool) {
	b := NewRESPBackend(respStore(t), tier)
	reg := obs.NewRegistry()
	tier.Instrument(reg)
	b.Instrument(reg)
	srv := httptest.NewServer(obs.PromHandler(reg))
	defer srv.Close()
	scrape := func() string {
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			t.Error(err)
			return ""
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		return string(body)
	}

	const clients, perClient = 4, 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				key := []byte(fmt.Sprintf("c%d-k%d", c, i))
				if err := b.Set(key, []byte("v")); err != nil {
					t.Error(err)
					return
				}
				if commit {
					if err := b.Commit(); err != nil {
						t.Error(err)
						return
					}
				}
				if _, ok, err := b.Get(key); !ok || err != nil {
					t.Errorf("get %s: ok=%v err=%v", key, ok, err)
					return
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
			scrape()
		}
	}

	final := scrape()
	keys := float64(clients * perClient)
	for name, want := range map[string]float64{
		obs.MetricRESPKeys:            keys,
		obs.MetricSpillRecordsWritten: keys,
		obs.MetricSpillLiveKeys:       keys,
		obs.MetricSpillFsyncs:         float64(tier.Stats().Fsyncs),
		obs.MetricRESPVirtualTimeNs:   float64(b.VirtualNow()),
	} {
		m := regexp.MustCompile(`(?m)^` + name + ` (\S+)$`).FindStringSubmatch(final)
		if m == nil {
			t.Errorf("final scrape has no %s sample", name)
			continue
		}
		if got, _ := strconv.ParseFloat(m[1], 64); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if st := tier.Stats(); commit && (st.Fsyncs == 0 || st.Fsyncs > st.RecordsWritten) {
		t.Errorf("%d commits cost %d fsyncs; want between 1 and one per record", st.RecordsWritten, st.Fsyncs)
	}
}

// sleepSyncShim blocks each fsync's thread in a real nanosleep syscall,
// as a slow device's fsync would, after writing "sync" to started.
type sleepSyncShim struct {
	sleep   time.Duration
	started io.Writer
}

func (s *sleepSyncShim) Write(_ string, _ int64, p []byte) ([]byte, error) { return p, nil }

func (s *sleepSyncShim) Sync(string) error {
	io.WriteString(s.started, "sync\n")
	ts := syscall.NsecToTimespec(s.sleep.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
	return nil
}

// slowFsyncEnv makes TestSlowFsyncServerProcess serve instead of skip.
const slowFsyncEnv = "KVSTORE_SLOW_FSYNC_SERVER"

// slowFsync is the server process's fsync time: under the 10 ms after
// which the runtime takes a processor back from any blocked syscall.
const slowFsync = 8 * time.Millisecond

// TestSlowFsyncServerProcess is the server of
// TestCommitFsyncDoesNotStallOtherConns, run in a process of its own:
// a durable RESP backend whose fsyncs sleep slowFsync. It prints its
// address, then "sync" as each fsync starts, and stops when stdin
// closes.
func TestSlowFsyncServerProcess(t *testing.T) {
	if os.Getenv(slowFsyncEnv) == "" {
		t.Skip("server half of TestCommitFsyncDoesNotStallOtherConns")
	}
	shim := &sleepSyncShim{sleep: slowFsync, started: os.Stdout}
	b := NewRESPBackend(respStore(t), openTierOpts(t, spill.Options{Dir: t.TempDir(), GroupCommit: true, Shim: shim}))
	if err := b.Set([]byte("g"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := resp.NewServer(b, resp.Options{})
	go srv.Serve(ln)
	fmt.Println(ln.Addr())
	io.Copy(io.Discard, os.Stdin)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}

// TestCommitFsyncDoesNotStallOtherConns: while one connection's SET
// waits for a slow fsync, a second connection's GET of a memory-resident
// key is answered within a third of that fsync. RESPBackend.Commit runs
// the fsync on a goroutine of its own. Called straight from the
// connection goroutine, the syscall keeps its processor, and with
// another processor idle the runtime waits up to 10 ms before it polls
// the network again, so the GET waits for the whole fsync. That needs an
// idle server with two processors: the server runs in a child process at
// GOMAXPROCS=2, since the test's own client goroutines would keep the
// runtime polling, and each probe starts after a pause. The fastest of
// three probes counts, so one noisy probe does not fail the test; a
// stall delays every probe.
func TestCommitFsyncDoesNotStallOtherConns(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^TestSlowFsyncServerProcess$")
	cmd.Env = append(os.Environ(), slowFsyncEnv+"=1", "GOMAXPROCS=2")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Wait()
	defer stdin.Close()
	events := bufio.NewReader(stdout)
	line := func(r *bufio.Reader, want string) {
		t.Helper()
		if got, err := r.ReadString('\n'); err != nil || got != want {
			t.Fatalf("read %q (%v), want %q", got, err, want)
		}
	}
	addr, err := events.ReadString('\n')
	if err != nil {
		t.Fatalf("server address: %v", err)
	}
	dial := func() (net.Conn, *bufio.Reader) {
		c, err := net.Dial("tcp", strings.TrimSpace(addr))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.SetDeadline(time.Now().Add(10 * time.Second))
		return c, bufio.NewReader(c)
	}
	setter, setReplies := dial()
	getter, getReplies := dial()

	fastest := time.Duration(math.MaxInt64)
	for probe := 0; probe < 3; probe++ {
		// Let the server go idle first, so no thread is busy when the
		// SET arrives; the one that picks it up is the one polling.
		time.Sleep(20 * time.Millisecond)
		if _, err := io.WriteString(setter, "SET k v\r\n"); err != nil {
			t.Fatal(err)
		}
		line(events, "sync\n")
		start := time.Now()
		if _, err := io.WriteString(getter, "GET g\r\n"); err != nil {
			t.Fatal(err)
		}
		line(getReplies, "$1\r\n")
		line(getReplies, "v\r\n")
		fastest = min(fastest, time.Since(start))
		line(setReplies, "+OK\r\n")
	}
	if fastest > slowFsync/3 {
		t.Fatalf("fastest GET took %v while another connection's fsync slept %v; want under %v", fastest, slowFsync, slowFsync/3)
	}
}
