package main

import (
	"bufio"
	"bytes"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSIGINTAtFirstListen signals the server the moment it announces
// its first listener, the earliest point a client can know the address.
// The drain handler must already be armed: every run exits 0 through
// the graceful path, closing the spill tier, never by the signal.
func TestSIGINTAtFirstListen(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the full binary")
	}
	bin := filepath.Join(t.TempDir(), "cxlserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	for run := 0; run < 10; run++ {
		cmd := exec.Command(bin,
			"-addr", "127.0.0.1:0",
			"-resp", "127.0.0.1:0",
			"-spill-dir", t.TempDir(),
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
		sc := bufio.NewScanner(stdout)
		listening := false
		for !listening && sc.Scan() {
			listening = strings.Contains(sc.Text(), "listening on ")
		}
		if !listening {
			err := cmd.Wait()
			t.Fatalf("run %d: no listener announced (exit %v)\nstderr:\n%s", run, err, stderr.String())
		}
		if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
			t.Fatal(err)
		}
		go io.Copy(io.Discard, stdout) // keep the pipe drained

		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run %d: exit after SIGINT: %v\nstderr:\n%s", run, err, stderr.String())
			}
		case <-time.After(15 * time.Second):
			cmd.Process.Kill()
			<-done
			t.Fatalf("run %d: drain timed out\nstderr:\n%s", run, stderr.String())
		}
		if !strings.Contains(stderr.String(), "cxlserve: drained, bye") {
			t.Fatalf("run %d: no graceful drain:\n%s", run, stderr.String())
		}
	}
}
