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
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRESPSmoke is the end-to-end serving smoke test (`make resp-smoke`):
// it builds the real binary, starts it with the RESP front end on an
// ephemeral port, drives a pipelined command mix over a raw TCP
// connection asserting byte-exact replies, checks the per-command
// counters landed in /metrics, then SIGINTs and asserts a clean drain.
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
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-resp", "127.0.0.1:0",
		"-spill-dir", spillDir,
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	// Scan startup output for the two ephemeral addresses.
	respAddr, httpAddr := scanAddrs(t, stdout)
	go io.Copy(io.Discard, stdout) // keep the pipe drained

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

	// Graceful drain: SIGINT, clean exit, spill closed exactly once.
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
	// The connection must be gone after drain.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("connection still alive after drain")
	}
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
