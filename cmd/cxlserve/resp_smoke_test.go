package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRESPSmoke is the end-to-end serving smoke test (`make resp-smoke`):
// it builds the real binary, starts it with the RESP front end on an
// ephemeral port, drives a pipelined command mix over a raw TCP
// connection asserting byte-exact replies, checks the per-command
// counters landed in /metrics, checks a pipelined SET burst shared
// fsyncs, then SIGINTs and asserts a clean drain. A restart on the same
// spill directory must read the burst back.
func TestRESPSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the full binary")
	}

	bin := filepath.Join(t.TempDir(), "cxlserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	spillDir := t.TempDir()
	cmd, stderr, respAddr, httpAddr := startCxlserve(t, bin, spillDir)

	conn, err := net.DialTimeout("tcp", respAddr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial RESP %s: %v", respAddr, err)
	}
	defer conn.Close()

	// One pipelined burst: every command category, single write.
	req := "*1\r\n$4\r\nPING\r\n" +
		"*3\r\n$3\r\nSET\r\n$5\r\nsmoke\r\n$5\r\nhello\r\n" +
		"*2\r\n$3\r\nGET\r\n$5\r\nsmoke\r\n" +
		"*2\r\n$6\r\nEXISTS\r\n$5\r\nsmoke\r\n" +
		"*2\r\n$4\r\nINCR\r\n$3\r\nctr\r\n" +
		"*5\r\n$4\r\nMSET\r\n$1\r\na\r\n$1\r\n1\r\n$1\r\nb\r\n$1\r\n2\r\n" +
		"*3\r\n$4\r\nMGET\r\n$1\r\na\r\n$1\r\nb\r\n" +
		"*2\r\n$3\r\nDEL\r\n$5\r\nsmoke\r\n" +
		"*2\r\n$3\r\nGET\r\n$5\r\nsmoke\r\n"
	want := "+PONG\r\n" +
		"+OK\r\n" +
		"$5\r\nhello\r\n" +
		":1\r\n" +
		":1\r\n" +
		"+OK\r\n" +
		"*2\r\n$1\r\n1\r\n$1\r\n2\r\n" +
		":1\r\n" +
		"$-1\r\n"
	roundTrip(t, conn, req, want)

	// Per-command metrics must be visible over the HTTP side.
	metrics := fetchMetrics(t, httpAddr)
	for _, want := range []string{
		`resp_commands_total{cmd="ping"} 1`,
		`resp_commands_total{cmd="get"} 2`,
		`resp_commands_total{cmd="set"} 1`,
		"resp_command_service_ns",
		"resp_connections_open",
		"# TYPE memsim_solve_cache_hits_total counter",
		"# TYPE memsim_solve_cache_misses_total counter",
		"# TYPE memsim_solve_cache_entries gauge",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// A pipelined SET burst is group-committed: its acks wait for one
	// shared fsync, not one each.
	const burst = 16
	var sets, gets, oks, vals strings.Builder
	for i := 0; i < burst; i++ {
		k, v := fmt.Sprintf("burst%02d", i), fmt.Sprintf("val%02d", i)
		fmt.Fprintf(&sets, "*3\r\n$3\r\nSET\r\n$%d\r\n%s\r\n$%d\r\n%s\r\n", len(k), k, len(v), v)
		fmt.Fprintf(&gets, "*2\r\n$3\r\nGET\r\n$%d\r\n%s\r\n", len(k), k)
		oks.WriteString("+OK\r\n")
		fmt.Fprintf(&vals, "$%d\r\n%s\r\n", len(v), v)
	}
	roundTrip(t, conn, sets.String(), oks.String())
	metrics = fetchMetrics(t, httpAddr)
	fsyncs, records := metricValue(t, metrics, "spill_fsyncs_total"), metricValue(t, metrics, "spill_records_written_total")
	if fsyncs >= records {
		t.Errorf("spill_fsyncs_total %v >= spill_records_written_total %v: writes were not group-committed", fsyncs, records)
	}

	drain(t, cmd, stderr)
	// The connection must be gone after drain.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("connection still alive after drain")
	}

	// Restart on the same directory: every acknowledged write recovers.
	cmd, stderr, respAddr, _ = startCxlserve(t, bin, spillDir)
	conn2, err := net.DialTimeout("tcp", respAddr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial RESP %s after restart: %v", respAddr, err)
	}
	defer conn2.Close()
	roundTrip(t, conn2, gets.String()+"*2\r\n$3\r\nGET\r\n$5\r\nsmoke\r\n", vals.String()+"$-1\r\n")
	drain(t, cmd, stderr)
}

// startCxlserve starts bin with the RESP front end and the spill tier
// at spillDir on ephemeral ports, and kills it when the test ends.
func startCxlserve(t *testing.T, bin, spillDir string) (cmd *exec.Cmd, stderr *bytes.Buffer, respAddr, httpAddr string) {
	t.Helper()
	cmd = exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-resp", "127.0.0.1:0",
		"-spill-dir", spillDir,
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr = &bytes.Buffer{}
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	// Scan startup output for the two ephemeral addresses.
	respAddr, httpAddr = scanAddrs(t, stdout)
	go io.Copy(io.Discard, stdout) // keep the pipe drained
	return cmd, stderr, respAddr, httpAddr
}

// roundTrip sends req in one write and requires exactly want back.
func roundTrip(t *testing.T, conn net.Conn, req, want string) {
	t.Helper()
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("read replies: %v (got %q so far)", err, got)
	}
	if string(got) != want {
		t.Fatalf("pipelined replies:\n got %q\nwant %q", got, want)
	}
}

// drain SIGINTs cmd and requires a clean exit with the spill tier
// closed exactly once.
func drain(t *testing.T, cmd *exec.Cmd, stderr *bytes.Buffer) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("exit after SIGINT: %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("drain timed out\nstderr:\n%s", stderr.String())
	}
	for _, want := range []string{"cxlserve: RESP drained", "cxlserve: drained, bye"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr.String())
		}
	}
}

// metricValue reads one unlabeled sample from a Prometheus text body.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + name + ` (\S+)$`).FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("/metrics has no %s sample", name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// scanAddrs reads startup lines until both listener addresses appear.
func scanAddrs(t *testing.T, stdout io.Reader) (respAddr, httpAddr string) {
	t.Helper()
	sc := bufio.NewScanner(stdout)
	deadline := time.Now().Add(30 * time.Second)
	for (respAddr == "" || httpAddr == "") && sc.Scan() {
		line := sc.Text()
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for listener addresses")
		}
		if rest, ok := strings.CutPrefix(line, "cxlserve: RESP listening on "); ok {
			respAddr = strings.TrimSpace(rest)
		}
		if i := strings.Index(line, " listening on "); i >= 0 && !strings.Contains(line, "RESP") {
			httpAddr = strings.TrimSpace(line[i+len(" listening on "):])
		}
	}
	if respAddr == "" || httpAddr == "" {
		t.Fatalf("listener addresses not announced (resp=%q http=%q, scan err=%v)",
			respAddr, httpAddr, sc.Err())
	}
	return respAddr, httpAddr
}

func fetchMetrics(t *testing.T, httpAddr string) string {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", httpAddr))
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
