package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is a running cxlserve -resp process on ephemeral loopback
// ports.
type server struct {
	cmd                *exec.Cmd
	respAddr, httpAddr string
	lines              chan string
	done               chan struct{} // closed when its stdout reaches EOF
	stderr             bytes.Buffer
	stopped            bool
}

// startServer starts cxlserve and waits until it answers PING. setup is
// the time from exec until then, in seconds, which includes spill
// recovery when dir holds data.
func startServer(bin, dir string) (*server, float64, error) {
	args := []string{"-addr", "127.0.0.1:0", "-resp", "127.0.0.1:0"}
	if dir != "" {
		args = append(args, "-spill-dir", dir)
	}
	srv := &server{cmd: exec.Command(bin, args...), lines: make(chan string, 16), done: make(chan struct{})}
	srv.cmd.Stderr = &srv.stderr
	srv.cmd.SysProcAttr = dieWithParent()
	out, err := srv.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := srv.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		defer close(srv.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			select {
			case srv.lines <- sc.Text():
			default: // nothing reads lines after start-up
			}
		}
	}()
	timeout := time.After(60 * time.Second)
	await := func(addr *string) error {
		for *addr == "" {
			select {
			case l := <-srv.lines:
				if a, ok := strings.CutPrefix(l, "cxlserve: RESP listening on "); ok {
					srv.respAddr = a
				} else if i := strings.LastIndex(l, " listening on "); i >= 0 && strings.HasPrefix(l, "cxlserve: policy=") {
					srv.httpAddr = l[i+len(" listening on "):]
				}
			case <-srv.done:
				return fmt.Errorf("cxlserve exited during start-up: %s", srv.stderr.String())
			case <-timeout:
				return errors.New("cxlserve did not start within 60s")
			}
		}
		return nil
	}
	if err := await(&srv.respAddr); err != nil {
		srv.kill()
		return nil, 0, err
	}
	if err := ping(srv.respAddr); err != nil {
		srv.kill()
		return nil, 0, err
	}
	setup := time.Since(t0).Seconds()
	if err := await(&srv.httpAddr); err != nil {
		srv.kill()
		return nil, 0, err
	}
	// cxlserve prints its HTTP address before it installs its SIGINT
	// handler, and serves HTTP only after; until then a SIGINT kills it
	// instead of draining it. An answered request closes that window.
	if _, err := srv.scrape(); err != nil {
		srv.kill()
		return nil, 0, err
	}
	return srv, setup, nil
}

func ping(addr string) error {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return err
	}
	if _, err := c.Write([]byte("*1\r\n$4\r\nPING\r\n")); err != nil {
		return err
	}
	line, err := bufio.NewReader(c).ReadString('\n')
	if err != nil {
		return err
	}
	if line != "+PONG\r\n" {
		return fmt.Errorf("PING answered %q", line)
	}
	return nil
}

// stop drains the server with SIGINT and waits for it; ok reports a
// zero exit.
func (srv *server) stop() (ok bool, err error) {
	srv.stopped = true
	if err := srv.cmd.Process.Signal(os.Interrupt); err != nil {
		return false, err
	}
	waited := make(chan error, 1)
	go func() {
		<-srv.done
		waited <- srv.cmd.Wait()
	}()
	select {
	case werr := <-waited:
		return werr == nil, nil
	case <-time.After(60 * time.Second):
		srv.cmd.Process.Kill()
		<-waited
		return false, errors.New("cxlserve did not drain within 60s")
	}
}

// kill ends a server stop did not, and waits for it. Nil-safe.
func (srv *server) kill() {
	if srv == nil || srv.stopped {
		return
	}
	srv.stopped = true
	srv.cmd.Process.Kill()
	<-srv.done
	srv.cmd.Wait()
}

var scrapeClient = &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

// scrape reads the server's Prometheus /metrics, summing each family
// over its label sets.
func (srv *server) scrape() (map[string]float64, error) {
	r, err := scrapeClient.Get("http://" + srv.httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		l := sc.Text()
		if l == "" || l[0] == '#' {
			continue
		}
		end := strings.IndexAny(l, "{ ")
		if end < 0 {
			continue
		}
		name, rest := l[:end], l[end:]
		if strings.HasPrefix(rest, "{") {
			rest = rest[strings.Index(rest, "}")+1:]
		}
		if f := strings.Fields(rest); len(f) > 0 {
			v, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return nil, fmt.Errorf("metrics line %q: %w", l, err)
			}
			m[name] += v
		}
	}
	return m, sc.Err()
}

// procCPU is a process's user plus system CPU time, in seconds.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the command name: state is field 3, utime 14, stime 15.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const userHZ = 100 // clock ticks per second on Linux
	return (ut + st) / userHZ, nil
}

func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
