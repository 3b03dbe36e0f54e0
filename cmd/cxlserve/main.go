// Command cxlserve runs the paper's Fig. 9 LLM serving stack as an HTTP
// service over the simulated cluster, and optionally a RESP (Redis wire
// protocol) front end over the simulated KeyDB store.
//
// Usage:
//
//	cxlserve                       # defaults: -addr :8080 -policy MMEM -backends 4
//	cxlserve -policy 3:1 -backends 5
//	cxlserve -policy 1:1 -faults examples/degrade-cxl.json
//	cxlserve -resp :6379           # serve GET/SET/... to redis-cli/redis-benchmark
//	curl -XPOST localhost:8080/generate -d '{"prompt":"hi","max_tokens":64}'
//	curl localhost:8080/health         # serving health + degraded resources
//	curl localhost:8080/metrics        # Prometheus text exposition
//	curl localhost:8080/metrics.json   # legacy JSON metrics
//	curl localhost:8080/trace.json     # Chrome trace-event JSON (Perfetto)
//	curl localhost:8080/slo            # windowed SLO evaluation (with -slo)
//	redis-cli -p 6379 set k v          # with -resp :6379 (see docs/SERVING.md)
//	go tool pprof localhost:8080/debug/pprof/profile   # live CPU profile
//	go tool pprof localhost:8080/debug/pprof/heap      # live heap profile
//
// -faults applies a fault schedule (docs/RELIABILITY.md) to the devices
// before the cluster is built, so the serving rate reflects the degraded
// fabric; /health reports the degraded resources and /generate responses
// carry "degraded": true. The schedule's client block (plus -shed-after-ms)
// configures the degraded-mode policy: shed with 503 + Retry-After under
// queue pressure, 504 when a generation exceeds the virtual timeout. A
// schedule that degrades the SSD browns out the RESP front end's durable
// tier: writes answer -BUSY, disk-backed reads -LOADING.
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// HTTP requests and RESP connections for up to -drain-timeout. All
// teardown runs through deferred cleanup in run() — error exits sync and
// close the spill tier too (main never calls os.Exit past a defer).
//
// The debug mux (net/http/pprof under /debug/pprof/, expvar under
// /debug/vars) is registered by obs.RegisterDebug; one-shot commands
// (cxlbench) take -cpuprofile/-memprofile flags instead.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cxlsim/internal/cliutil"
	"cxlsim/internal/fault"
	"cxlsim/internal/kvstore"
	"cxlsim/internal/llm"
	"cxlsim/internal/llmserve"
	"cxlsim/internal/obs"
	"cxlsim/internal/resp"
	"cxlsim/internal/slo"
	"cxlsim/internal/spill"
	"cxlsim/internal/topology"
	"cxlsim/internal/vmm"
)

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cxlserve: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// config carries the validated flag values into run().
type config struct {
	addr         string
	policy       llm.Policy
	backends     int
	faults       string
	sloPath      string
	windowsMs    float64
	shedAfterMs  float64
	drainTimeout time.Duration
	spillDir     string
	respAddr     string
	respMaxConns int
	respFrame    int
}

func main() {
	cfg := parseFlags()
	// Everything that opens resources lives in run(): its defers execute
	// on every return path, so an error exit still syncs and closes the
	// spill tier — the os.Exit-skips-defers teardown bug class is
	// structurally gone.
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "cxlserve: %v\n", err)
		os.Exit(1)
	}
}

// parseFlags parses and validates the command line. Usage errors exit
// before any resource is opened, so exiting here skips no cleanup.
func parseFlags() config {
	names := policyNames()
	addr := flag.String("addr", ":8080", "HTTP listen address")
	policy := flag.String("policy", "MMEM", "placement policy: "+strings.Join(names, ", "))
	backends := flag.Int("backends", 4, "CPU inference backends (12 threads each)")
	faults := flag.String("faults", "", "apply this fault schedule (JSON) to the fabric before serving")
	sloPath := flag.String("slo", "", "evaluate this SLO spec (JSON) over virtual-time windows; serves /slo")
	windowsMs := flag.Float64("windows", 0, "SLO window length, virtual ms (0 = the spec's window_ms, else 1000)")
	shedAfterMs := flag.Float64("shed-after-ms", 0, "shed requests (503) when virtual queue wait exceeds this (0 = never)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
	spillDir := flag.String("spill-dir", "", "open (recovering if needed) a durable spill tier and expose its I/O and recovery metrics at /metrics")
	respFlags := cliutil.RESP(flag.CommandLine)
	flag.Parse()

	var chosen *llm.Policy
	for _, p := range llm.Fig10Policies() {
		if p.Name == *policy {
			p := p
			chosen = &p
			break
		}
	}
	if chosen == nil {
		usageError("unknown policy %q (want one of %s)", *policy, strings.Join(names, ", "))
	}
	if *backends < 1 {
		usageError("need at least one backend")
	}
	if *shedAfterMs < 0 {
		usageError("-shed-after-ms cannot be negative")
	}
	if *windowsMs < 0 {
		usageError("-windows cannot be negative")
	}
	if err := cliutil.CheckRESP(respFlags, cliutil.RESPTuningSet(flag.CommandLine)); err != nil {
		usageError("%v", err)
	}
	var faultsSet bool
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "faults" {
			faultsSet = true
		}
	})
	if faultsSet && *faults == "" {
		usageError("-faults needs a schedule file")
	}

	return config{
		addr:         *addr,
		policy:       *chosen,
		backends:     *backends,
		faults:       *faults,
		sloPath:      *sloPath,
		windowsMs:    *windowsMs,
		shedAfterMs:  *shedAfterMs,
		drainTimeout: *drainTimeout,
		spillDir:     *spillDir,
		respAddr:     *respFlags.Addr,
		respMaxConns: *respFlags.MaxConns,
		respFrame:    *respFlags.FrameBytes,
	}
}

func run(cfg config) error {
	// Arm the drain handler before any listener opens: a client may signal
	// as soon as it reads an announced address, and that signal must take
	// the graceful path (drain, spill close), not kill the process.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Degrade the devices before the cluster is built: placements and the
	// steady serving rate then reflect the faulted fabric. A wall-clock
	// server has no virtual event loop to sequence transitions through, so
	// the whole schedule is applied up front.
	m := topology.TestbedSNC()
	var inj *fault.Injector
	var schedule *fault.Schedule
	if cfg.faults != "" {
		var err error
		schedule, err = fault.LoadSchedule(cfg.faults)
		if err != nil {
			return err
		}
		inj, err = fault.NewInjector(schedule, m)
		if err != nil {
			return err
		}
		inj.ApplyAll()
	}

	cluster := llm.NewClusterOn(m)
	s := llmserve.New(cluster, cfg.policy, cfg.backends)

	rs := llmserve.Resilience{ShedAfterNs: cfg.shedAfterMs * 1e6}
	if inj != nil {
		pol := schedule.ClientPolicy()
		rs.TimeoutNs = pol.TimeoutNs
		rs.BackoffNs = pol.BackoffNs
		rs.MaxRetries = pol.MaxRetries
		s.SetHealth(func() (bool, []string) {
			return inj.ActiveCount() > 0, inj.DegradedResources()
		})
	}
	s.SetResilience(rs)

	if cfg.sloPath != "" {
		spec, err := slo.Load(cfg.sloPath)
		if err != nil {
			return err
		}
		if err := s.SetSLO(*spec, cfg.windowsMs*1e6); err != nil {
			return err
		}
		fmt.Printf("cxlserve: SLO %q: %d objective(s), %d alert rule(s) at /slo\n",
			spec.Name, len(spec.Objectives), len(spec.Alerts))
	}

	// Publish the solver's per-resource utilization/bandwidth gauges into
	// the server's registry so /metrics exposes them alongside the serving
	// counters; priming one ServingRate call makes the gauge family live
	// before the first request arrives.
	obs.InstrumentMemsim(s.Registry())
	defer obs.InstrumentMemsim(nil)
	rate := cluster.ServingRate(cfg.policy, cfg.backends)

	// Durable spill tier: recover the directory up front (repairing torn
	// tails, quarantining corruption) and publish its counters — recovery
	// duration, records scanned/quarantined, live I/O — into the same
	// registry /metrics serves.
	//
	// closeSpill is the single teardown path: the graceful-drain branch
	// calls it to surface close errors, and the defer catches every other
	// return. The nil-out makes the second call a no-op here; spill.Dir's
	// documented Close idempotence backstops any future caller that slips
	// a direct Close in anyway.
	var spillTier *spill.Dir
	closeSpill := func() error {
		if spillTier == nil {
			return nil
		}
		d := spillTier
		spillTier = nil
		return d.Close()
	}
	defer closeSpill()
	if cfg.spillDir != "" {
		sd, rep, err := spill.Open(spill.Options{Dir: cfg.spillDir})
		if err != nil {
			return fmt.Errorf("spill tier: %w", err)
		}
		sd.Instrument(s.Registry())
		spillTier = sd
		state := "clean"
		if !rep.Clean() {
			state = "repaired"
		}
		fmt.Printf("cxlserve: spill tier %s recovered (%s): %s\n", cfg.spillDir, state, rep)
	}

	// RESP front end: a simulated KeyDB store prices every command
	// (placement, loaded latency, heat) while the real values live in
	// memory plus the durable spill tier when one is attached.
	var respSrv *resp.Server
	respErrCh := make(chan error, 1)
	if cfg.respAddr != "" {
		st, err := kvstore.NewStore(m, vmm.NewAllocator(m), kvstore.StoreConfig{
			WorkingSetBytes: 100 << 30,
			SimKeys:         1 << 14,
			MaxMemoryFrac:   1,
			Policy:          vmm.Bind{Nodes: respHeapNodes(m)},
		})
		if err != nil {
			return fmt.Errorf("resp store: %w", err)
		}
		backend := kvstore.NewRESPBackend(st, spillTier)
		backend.Instrument(s.Registry())
		if inj != nil {
			backend.SetDegraded(func() bool { return inj.TargetDegraded("/ssd") })
		}
		respSrv = resp.NewServer(backend, resp.Options{
			MaxConns: cfg.respMaxConns,
			Limits:   resp.Limits{MaxBulkBytes: cfg.respFrame},
			Registry: s.Registry(),
		})
		respLn, err := net.Listen("tcp", cfg.respAddr)
		if err != nil {
			return fmt.Errorf("resp listener: %w", err)
		}
		fmt.Printf("cxlserve: RESP listening on %s\n", respLn.Addr())
		go func() { respErrCh <- respSrv.Serve(respLn) }()
	}

	httpLn, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	fmt.Printf("cxlserve: policy=%s backends=%d rate=%.0f tok/s listening on %s\n",
		cfg.policy.Name, cfg.backends, rate.TokensPerSec, httpLn.Addr())
	if inj != nil {
		fmt.Printf("cxlserve: fault schedule active: %s\n", inj.Describe())
	}

	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(httpLn) }()

	select {
	case err := <-errCh:
		// Listener died before any signal (port in use, etc.).
		return err
	case err := <-respErrCh:
		return fmt.Errorf("resp: %w", err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills immediately
		fmt.Fprintln(os.Stderr, "cxlserve: shutting down, draining in-flight requests")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		if respSrv != nil {
			if err := respSrv.Shutdown(shutdownCtx); err != nil {
				return fmt.Errorf("resp shutdown: %w", err)
			}
			if err := <-respErrCh; err != nil && !errors.Is(err, resp.ErrServerClosed) {
				return fmt.Errorf("resp: %w", err)
			}
			fmt.Fprintln(os.Stderr, "cxlserve: RESP drained")
		}
		if err := closeSpill(); err != nil {
			return fmt.Errorf("closing spill tier: %w", err)
		}
		fmt.Fprintln(os.Stderr, "cxlserve: drained, bye")
		return nil
	}
}

// respHeapNodes picks where the RESP store's value heap lives: the CXL
// expander when the testbed has one (the paper's KeyDB-on-CXL shape),
// else socket-0 DRAM.
func respHeapNodes(m *topology.Machine) []*topology.Node {
	if nodes := m.CXLNodes(); len(nodes) > 0 {
		return nodes
	}
	return m.DRAMNodes(0)
}

// policyNames lists the valid -policy values in figure order.
func policyNames() []string {
	ps := llm.Fig10Policies()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}
