package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"time"

	"cxlsim/internal/kvstore"
	"cxlsim/internal/resp"
	"cxlsim/internal/spill"
	"cxlsim/internal/topology"
	"cxlsim/internal/vmm"
)

// respSpec sizes one RESP workload. Load is two closed-loop clients, one
// connection each, that wait for their replies before sending more.
type respSpec struct {
	name    string
	durable bool    // serve with -spill-dir: every SET appends and fsyncs
	keys    int     // preloaded keys; even, as each client owns half
	getFrac float64 // GET share of the mixed traffic; the rest are SETs
	batch   int     // commands per depth-16 batch, both clients together
}

var (
	respCache   = respSpec{name: "resp-cache", keys: 100_000, getFrac: 0.9, batch: 200_000}
	respDurable = respSpec{name: "resp-durable", durable: true, keys: 20_000, getFrac: 0.5, batch: 10_000}
)

const (
	respClients  = 2
	pipeDepth    = 16
	valueLen     = 100
	serverStarts = 5 // set-up samples per pass
)

func (sp respSpec) sized(quick bool) respSpec {
	if quick {
		sp.keys, sp.batch = 2_000, 2_000
	}
	return sp
}

func (sp respSpec) timed(e *env, s samples) error { return sp.sized(e.quick).live(e, s) }

func (sp respSpec) traced(e *env, s samples) error {
	sp = sp.sized(e.quick)
	if err := sp.live(e, s); err != nil {
		return err
	}
	return sp.inProcess(e, s)
}

// live drives a real cxlserve -resp process over loopback: set-up
// samples (fresh starts, or restarts that recover the spill directory),
// a preload, an unmeasured warm-up, depth-1 latency windows and depth-16
// throughput batches.
func (sp respSpec) live(e *env, s samples) error {
	root := e.tr.start(sp.name, "live server", 0)
	defer e.tr.end(root)
	var dir string
	if sp.durable {
		d, err := os.MkdirTemp(e.tmp, "spill-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	streams := make([]*stream, respClients)
	for i := range streams {
		streams[i] = newStream(i, sp, e.seed)
	}
	var srv *server
	defer func() { srv.kill() }()
	var clients []*client
	defer func() { closeAll(clients) }()
	restart := func(record bool) error {
		closeAll(clients)
		clients = nil
		if srv != nil {
			if err := e.stopServer(srv, nil); err != nil {
				return err
			}
		}
		span := e.tr.start("cxlserve.start", "", root)
		var setup float64
		var err error
		srv, setup, err = startServer(e.server, dir)
		e.tr.end(span)
		if err != nil {
			return err
		}
		if record {
			s.add("setup_s", setup)
		}
		clients, err = dial(srv.respAddr, streams)
		return err
	}
	phase := func(name string, fn func(c *client) error) error {
		span := e.tr.start(name, "", root)
		defer e.tr.end(span)
		return both(clients, fn)
	}

	if sp.durable {
		// Preload a fixed, seed-determined data set, then time restarts
		// that recover it: the recovered input does not depend on how
		// fast this machine serves.
		if err := restart(false); err != nil {
			return err
		}
		if err := phase("preload", func(c *client) error { return c.owned(e.tally, c.set) }); err != nil {
			return err
		}
		for i := 0; i < serverStarts; i++ {
			if err := restart(true); err != nil {
				return err
			}
			m, err := srv.scrape()
			if err != nil {
				return err
			}
			s.add("spill.recovery_s", m["spill_recovery_duration_ns"]/1e9)
			s.add("spill.recovery_records_scanned", m["spill_recovery_records_scanned_total"])
		}
		if err := phase("verify", func(c *client) error { return c.owned(e.tally, c.get) }); err != nil {
			return err
		}
	} else {
		for i := 0; i < serverStarts; i++ {
			if err := restart(true); err != nil {
				return err
			}
		}
		if err := phase("preload", func(c *client) error { return c.owned(e.tally, c.set) }); err != nil {
			return err
		}
	}
	warmUntil := time.Now().Add(e.seconds / 10)
	if err := phase("warm-up", func(c *client) error { return c.run(e.tally, pipeDepth, 0, warmUntil, nil) }); err != nil {
		return err
	}

	m0, err := srv.scrape()
	if err != nil {
		return err
	}
	var written0 int64
	for _, st := range streams {
		written0 += st.written
	}
	// Depth-1 latency: three windows, each reporting its own quantiles.
	for w := 0; w < 3; w++ {
		lat := make([]rtts, respClients)
		until := time.Now().Add(e.seconds / 6)
		if err := phase("depth-1", func(c *client) error { return c.run(e.tally, 1, 0, until, &lat[c.id]) }); err != nil {
			return err
		}
		var all, gets, sets []float64
		for _, l := range lat {
			gets = append(gets, l.get...)
			sets = append(sets, l.set...)
		}
		all = append(append(all, gets...), sets...)
		s.add("resp.rtt_samples", float64(len(all)))
		s.percentile("resp.p50_ms", all, 50)
		s.percentile("resp.p99_ms", all, 99)
		s.percentile("resp.get_p99_ms", gets, 99)
		s.percentile("resp.set_p99_ms", sets, 99)
	}
	// Depth-16 throughput: fixed batches until half the measuring time
	// is used up.
	cpu0, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	self0 := selfCPU()
	start, cmds := time.Now(), 0
	for b := 0; b == 0 || time.Since(start) < e.seconds/2; b++ {
		t0 := time.Now()
		if err := phase("depth-16", func(c *client) error { return c.run(e.tally, pipeDepth, sp.batch/respClients, time.Time{}, nil) }); err != nil {
			return err
		}
		d := time.Since(t0).Seconds()
		s.add("wall_s", d)
		s.add("resp.max_ops_per_s", float64(sp.batch)/d)
		cmds += sp.batch
	}
	cpu1, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	s.add("cxlserve.cpu_us_per_cmd", (cpu1-cpu0)*1e6/float64(cmds))
	s.add("gen.cpu_us_per_cmd", (selfCPU()-self0)*1e6/float64(cmds))

	m1, err := srv.scrape()
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return m1[name] - m0[name] }
	s.add("resp.commands", delta("resp_commands_total"))
	s.add("resp.errors", delta("resp_errors_total"))
	s.add("resp.protocol_errors", delta("resp_protocol_errors_total"))
	if sp.durable {
		var written int64
		for _, st := range streams {
			written += st.written
		}
		recs, bytesW := delta("spill_records_written_total"), delta("spill_bytes_written_total")
		s.add("spill.records_written", recs)
		s.add("spill.fsyncs", delta("spill_fsyncs_total"))
		s.add("spill.bytes_written", bytesW)
		s.ratio("spill.fsyncs_per_record", delta("spill_fsyncs_total"), recs)
		s.ratio("spill.write_amp", bytesW, float64(written-written0))
	}
	closeAll(clients)
	clients = nil
	return e.stopServer(srv, s)
}

// stopServer drains srv with SIGINT. A non-zero exit is a failed
// operation; with s set the server's peak RSS is recorded first.
func (e *env) stopServer(srv *server, s samples) error {
	if s != nil {
		mb, err := peakRSS(strconv.Itoa(srv.cmd.Process.Pid))
		if err != nil {
			return err
		}
		s.add("peak_rss_mb", mb)
	}
	ok, err := srv.stop()
	if err != nil {
		return err
	}
	e.tally.check(ok)
	if !ok {
		fmt.Fprintf(os.Stderr, "cxlperf: cxlserve drain failed: %s\n", srv.stderr.String())
	}
	return nil
}

// stackTimers aggregates the in-process pass's per-command calls.
type stackTimers struct{ parse, dispatch, get, set agg }

// timedBackend times the data commands the workload sends.
type timedBackend struct {
	resp.Backend
	t *stackTimers
}

func (b timedBackend) Get(key []byte) ([]byte, bool, error) {
	t0 := time.Now()
	v, ok, err := b.Backend.Get(key)
	b.t.get.since(t0)
	return v, ok, err
}

func (b timedBackend) Set(key, val []byte) error {
	t0 := time.Now()
	err := b.Backend.Set(key, val)
	b.t.set.since(t0)
	return err
}

// inProcess feeds the workload's command stream through cxlserve's RESP
// stack, built in this process from the constructors cxlserve uses:
// once untraced as the overhead baseline, then with every
// resp.Reader.ReadCommand, resp.Dispatcher.Dispatch and backend call
// timed.
func (sp respSpec) inProcess(e *env, s samples) error {
	base, err := sp.feedStack(e, nil, s)
	if err != nil {
		return err
	}
	mp := probeMemsim()
	g := readGo()
	t := &stackTimers{}
	wall, err := sp.feedStack(e, t, s)
	mp.stop(s)
	g.since(s)
	if err != nil {
		return err
	}
	t.parse.perCall(s, "resp.parse_ns_per_cmd")
	s.ratio("resp.dispatch_ns_per_cmd", float64(t.dispatch.ns.Load()-t.get.ns.Load()-t.set.ns.Load()), float64(t.dispatch.n.Load()))
	t.get.perCall(s, "kvstore.backend_get_ns")
	t.set.perCall(s, "kvstore.backend_set_ns")
	s.add("trace.overhead_ratio", wall/base)
	return nil
}

// feedStack builds the stack and feeds it the preload and one depth-16
// batch of both clients' commands, checking every reply. With t set it
// times the layers, records spans and the kvstore metrics into s, and
// returns the stream's wall time.
func (sp respSpec) feedStack(e *env, t *stackTimers, s samples) (float64, error) {
	var tr *tracer
	if t != nil {
		tr = e.tr
	}
	root := tr.start(sp.name, "in-process", 0)
	defer tr.end(root)
	m := topology.TestbedSNC()
	span := tr.start("kvstore.NewStore", "", root)
	t0 := time.Now()
	store, err := kvstore.NewStore(m, vmm.NewAllocator(m), kvstore.StoreConfig{
		WorkingSetBytes: 100 << 30,
		SimKeys:         1 << 14,
		MaxMemoryFrac:   1,
		Policy:          vmm.Bind{Nodes: m.CXLNodes()},
	})
	deploy := time.Since(t0).Seconds()
	tr.end(span)
	if err != nil {
		return 0, err
	}
	var tier *spill.Dir
	if sp.durable {
		dir, err := os.MkdirTemp(e.tmp, "spill-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		if tier, _, err = spill.Open(spill.Options{Dir: dir}); err != nil {
			return 0, err
		}
		defer tier.Close()
	}
	backend := kvstore.NewRESPBackend(store, tier)
	var b resp.Backend = backend
	if t != nil {
		b = timedBackend{Backend: backend, t: t}
	}
	disp := resp.NewDispatcher(b)
	streams := make([]*stream, respClients)
	for i := range streams {
		streams[i] = newStream(i, sp, e.seed)
	}
	span = tr.start("resp.stream", "", root)
	t0 = time.Now()
	for _, st := range streams {
		for k := st.id; k < sp.keys; k += respClients {
			st.set(uint32(k))
		}
		if err := feed(disp, st, e.tally, t); err != nil {
			return 0, err
		}
	}
	for _, st := range streams {
		for i := 0; i < sp.batch/respClients; i++ {
			st.mixed()
		}
		if err := feed(disp, st, e.tally, t); err != nil {
			return 0, err
		}
	}
	wall := time.Since(t0).Seconds()
	tr.end(span)
	if tier != nil {
		if err := tier.Close(); err != nil {
			return 0, fmt.Errorf("closing spill tier: %w", err)
		}
	}
	if t != nil {
		hits, misses := store.CacheCounts()
		s.add("kvstore.deploy_s", deploy)
		s.add("kvstore.virtual_ns_total", float64(backend.VirtualNow()))
		s.ratio("kvstore.hit_ratio", float64(hits), float64(hits+misses))
	}
	return wall, nil
}

// feed parses and dispatches a stream's queued commands, then checks the
// replies.
func feed(disp *resp.Dispatcher, st *stream, tl *tally, t *stackTimers) error {
	rd := resp.NewReader(bytes.NewReader(st.buf), resp.Limits{})
	out := make([]byte, 0, len(st.pend)*(valueLen+16))
	for range st.pend {
		var t0 time.Time
		if t != nil {
			t0 = time.Now()
		}
		args, err := rd.ReadCommand()
		if err != nil {
			return err
		}
		if t != nil {
			t.parse.since(t0)
			t0 = time.Now()
		}
		out, _ = disp.Dispatch(args, out)
		if t != nil {
			t.dispatch.since(t0)
		}
	}
	br := bufio.NewReader(bytes.NewReader(out))
	var scratch []byte
	for _, x := range st.pend {
		kind, val, err := readReply(br, &scratch)
		if err != nil {
			return err
		}
		tl.check(st.ok(x, kind, val))
	}
	st.buf, st.pend = st.buf[:0], st.pend[:0]
	return nil
}
