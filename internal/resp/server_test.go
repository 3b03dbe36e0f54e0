package resp

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cxlsim/internal/obs"
)

// startServer runs a server over a fresh listener, returning its
// address and a stop func that asserts a clean drain.
func startServer(t *testing.T, b Backend, opts Options) (string, *Server, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serve(t, b, opts, ln)
}

// serve is startServer over a given listener.
func serve(t *testing.T, b Backend, opts Options, ln net.Listener) (string, *Server, func()) {
	t.Helper()
	s := NewServer(b, opts)
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	}
	return ln.Addr().String(), s, stop
}

// TestServerPipelined sends a burst of pipelined commands in one write
// and asserts the byte-exact concatenated reply stream.
func TestServerPipelined(t *testing.T) {
	addr, _, stop := startServer(t, newMapBackend(), Options{})
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	req := "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n" +
		"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n" +
		"*2\r\n$3\r\nDEL\r\n$1\r\nk\r\n" +
		"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n" +
		"*1\r\n$4\r\nPING\r\n"
	want := "+OK\r\n$5\r\nhello\r\n:1\r\n$-1\r\n+PONG\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("replies:\n got %q\nwant %q", got, want)
	}
}

// TestServerProtocolErrorCloses asserts the Redis contract: malformed
// framing earns one -ERR Protocol error reply, then the server closes.
func TestServerProtocolErrorCloses(t *testing.T) {
	reg := obs.NewRegistry()
	addr, _, stop := startServer(t, newMapBackend(), Options{Registry: reg})
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("*1\r\n:bad\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	all, err := io.ReadAll(conn) // server must close after the error reply
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !strings.HasPrefix(string(all), "-ERR Protocol error:") {
		t.Fatalf("reply %q, want -ERR Protocol error prefix", all)
	}
	snap := reg.Snapshot()
	if f, ok := snap.Find(obs.MetricRESPProtocolErrors); !ok || f.Metrics[0].Value != 1 {
		t.Fatalf("resp_protocol_errors_total not incremented")
	}
}

// TestServerMaxConns asserts the cap: the excess client is told off and
// closed without counting as accepted.
func TestServerMaxConns(t *testing.T) {
	reg := obs.NewRegistry()
	addr, _, stop := startServer(t, newMapBackend(), Options{MaxConns: 1, Registry: reg})
	defer stop()

	first, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	// Prove the first connection is fully tracked before dialing the
	// second (accept is asynchronous).
	if _, err := first.Write([]byte("*1\r\n$4\r\nPING\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	first.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(first, buf); err != nil || string(buf) != "+PONG\r\n" {
		t.Fatalf("first conn ping: %q %v", buf, err)
	}

	second, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	second.SetReadDeadline(time.Now().Add(5 * time.Second))
	all, _ := io.ReadAll(second)
	if !strings.HasPrefix(string(all), "-ERR max number of clients") {
		t.Fatalf("second conn got %q, want max-clients error", all)
	}
	if f, ok := reg.Snapshot().Find(obs.MetricRESPConnsRejected); !ok || f.Metrics[0].Value != 1 {
		t.Fatal("resp_connections_rejected_total not incremented")
	}
}

// TestServerGracefulDrain pins the drain contract: pipelined commands
// already received are answered before the connection closes, and
// Shutdown returns cleanly.
func TestServerGracefulDrain(t *testing.T) {
	b := newMapBackend()
	addr, s, _ := startServer(t, b, Options{})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One answered round-trip proves the connection is established and
	// its read loop running before Shutdown fires.
	if _, err := conn.Write([]byte("*1\r\n$4\r\nPING\r\n")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil || line != "+PONG\r\n" {
		t.Fatalf("ping: %q %v", line, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// After drain the connection must be closed...
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("post-drain read: %v, want EOF", err)
	}
	// ...and new connections refused.
	if c2, err := net.Dial("tcp", addr); err == nil {
		c2.Close()
		t.Fatal("dial after shutdown succeeded")
	}
}

// commitBackend models a deferred-sync durable backend: each SET is an
// append, and Commit makes every append so far durable after a delay
// that stands in for the fsync, or fails with commitErr.
type commitBackend struct {
	*mapBackend
	delay     time.Duration
	commitErr error

	cmu               sync.Mutex
	appended, durable int // SETs applied; SETs covered by a returned Commit
	commits           int

	writes atomic.Int32 // server socket writes, counted by ackCheckConn
}

func newCommitBackend(delay time.Duration, err error) *commitBackend {
	return &commitBackend{mapBackend: newMapBackend(), delay: delay, commitErr: err}
}

func (b *commitBackend) Set(key, val []byte) error {
	if err := b.mapBackend.Set(key, val); err != nil {
		return err
	}
	b.cmu.Lock()
	b.appended++
	b.cmu.Unlock()
	return nil
}

func (b *commitBackend) Commit() error {
	b.cmu.Lock()
	target := b.appended
	b.commits++
	b.cmu.Unlock()
	time.Sleep(b.delay)
	if b.commitErr != nil {
		return b.commitErr
	}
	b.cmu.Lock()
	b.durable = max(b.durable, target)
	b.cmu.Unlock()
	return nil
}

func (b *commitBackend) counts() (durable, commits int) {
	b.cmu.Lock()
	defer b.cmu.Unlock()
	return b.durable, b.commits
}

// ackCheckListener wraps every accepted connection so that each server
// write checks the barrier: a client sends sets SETs before anything
// else, so the first sets 5-byte "+OK\r\n" replies are write acks, and
// no write may carry more of them than the backend has made durable.
type ackCheckListener struct {
	net.Listener
	t    *testing.T
	b    *commitBackend
	sets int
}

func (l ackCheckListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &ackCheckConn{Conn: c, l: l}, nil
}

type ackCheckConn struct {
	net.Conn
	l       ackCheckListener
	written int
}

func (c *ackCheckConn) Write(p []byte) (int, error) {
	c.l.b.writes.Add(1)
	c.written += len(p)
	acks := min(c.written/len("+OK\r\n"), c.l.sets)
	if durable, _ := c.l.b.counts(); acks > durable {
		c.l.t.Errorf("server wrote %d write acks with %d writes durable", acks, durable)
	}
	return c.Conn.Write(p)
}

// startCommitServer serves b behind the ack barrier check.
func startCommitServer(t *testing.T, b *commitBackend, sets int) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr, _, stop := serve(t, b, Options{}, ackCheckListener{Listener: ln, t: t, b: b, sets: sets})
	return addr, stop
}

func sets(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%d", i)
		fmt.Fprintf(&sb, "*3\r\n$3\r\nSET\r\n$%d\r\n%s\r\n$1\r\nv\r\n", len(k), k)
	}
	return sb.String()
}

// exchange writes req in one segment and reads until the server closes
// or want bytes arrive.
func exchange(t *testing.T, addr, req string, want int) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := make([]byte, want)
	n, _ := io.ReadFull(conn, got)
	return string(got[:n])
}

// TestServerCommitsPipelinedBurst: a pipelined burst of 16 SETs is
// acknowledged only after a Commit covering each ack has returned, and
// the whole burst costs one commit and one socket write.
func TestServerCommitsPipelinedBurst(t *testing.T) {
	b := newCommitBackend(50*time.Millisecond, nil)
	addr, stop := startCommitServer(t, b, 16)
	defer stop()
	want := strings.Repeat("+OK\r\n", 16)
	if got := exchange(t, addr, sets(16), len(want)); got != want {
		t.Fatalf("replies %q, want %q", got, want)
	}
	if durable, commits := b.counts(); durable != 16 || commits != 1 {
		t.Fatalf("durable=%d commits=%d; want 16 durable in 1 commit", durable, commits)
	}
	if w := b.writes.Load(); w != 1 {
		t.Fatalf("burst answered in %d writes, want 1", w)
	}
}

// TestServerCommitsBeforeQuitFlush covers the final flush: SETs
// pipelined with QUIT are acknowledged after their commit, then the
// connection closes.
func TestServerCommitsBeforeQuitFlush(t *testing.T) {
	b := newCommitBackend(20*time.Millisecond, nil)
	addr, stop := startCommitServer(t, b, 3)
	defer stop()
	want := strings.Repeat("+OK\r\n", 4)
	if got := exchange(t, addr, sets(3)+"*1\r\n$4\r\nQUIT\r\n", len(want)+1); got != want {
		t.Fatalf("replies %q, want %q then close", got, want)
	}
	if durable, _ := b.counts(); durable != 3 {
		t.Fatalf("durable=%d, want 3", durable)
	}
}

// TestServerCommitErrorCloses: a failed Commit drops the batch's acks
// and closes the connection.
func TestServerCommitErrorCloses(t *testing.T) {
	b := newCommitBackend(0, errors.New("device dead"))
	addr, stop := startCommitServer(t, b, 4)
	defer stop()
	if got := exchange(t, addr, sets(4), 1); got != "" {
		t.Fatalf("got %q after a failed commit, want the connection closed with no reply", got)
	}
	if _, commits := b.counts(); commits == 0 {
		t.Fatal("the batch never tried to commit")
	}
}

// TestServerReadsNeedNoCommit: a batch with no write in it never calls
// Commit, so it costs no fsync.
func TestServerReadsNeedNoCommit(t *testing.T) {
	b := newCommitBackend(0, nil)
	addr, stop := startCommitServer(t, b, 0)
	defer stop()
	req := "*2\r\n$3\r\nGET\r\n$1\r\nk\r\n*1\r\n$4\r\nPING\r\n*2\r\n$6\r\nEXISTS\r\n$1\r\nk\r\n"
	want := "$-1\r\n+PONG\r\n:0\r\n"
	if got := exchange(t, addr, req, len(want)); got != want {
		t.Fatalf("replies %q, want %q", got, want)
	}
	if _, commits := b.counts(); commits != 0 {
		t.Fatalf("read-only batch committed %d times", commits)
	}
}

// servePipe runs one connection of s over net.Pipe and returns the
// client end. A pipe read returns at most one client write, so the test
// decides where the server's reads split the stream.
func servePipe(s *Server) (net.Conn, *replyConn) {
	srv, cli := net.Pipe()
	c := &replyConn{Conn: srv, commit: s.commit}
	s.wg.Add(1)
	go s.serveConn(c)
	return cli, c
}

// TestServerAnswersBeforePartialFrame: replies to the commands already
// received go out before the server waits for the rest of a frame, even
// though that frame's first half is already in the read buffer.
func TestServerAnswersBeforePartialFrame(t *testing.T) {
	s := NewServer(newMapBackend(), Options{})
	cli, _ := servePipe(s)
	defer func() {
		cli.Close()
		s.wg.Wait()
	}()
	get := "*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"
	cli.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(cli, "*1\r\n$4\r\nPING\r\n"+get[:9]); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len("+PONG\r\n"))
	if _, err := io.ReadFull(cli, got); err != nil || string(got) != "+PONG\r\n" {
		t.Fatalf("PING reply %q, %v; want +PONG before the rest of GET is sent", got, err)
	}
	if _, err := io.WriteString(cli, get[9:]); err != nil {
		t.Fatal(err)
	}
	got = make([]byte, len("$-1\r\n"))
	if _, err := io.ReadFull(cli, got); err != nil || string(got) != "$-1\r\n" {
		t.Fatalf("GET reply %q, %v", got, err)
	}
}

// pipeExchange sends chunks over a fresh server's pipe connection, one
// write each, and returns every reply byte up to the server's close.
func pipeExchange(t *testing.T, chunks []string) string {
	t.Helper()
	s := NewServer(newMapBackend(), Options{})
	cli, _ := servePipe(s)
	defer s.wg.Wait()
	defer cli.Close()
	cli.SetDeadline(time.Now().Add(5 * time.Second))
	go func() {
		for _, c := range chunks {
			if _, err := io.WriteString(cli, c); err != nil {
				return
			}
		}
	}()
	got, err := io.ReadAll(cli)
	if err != nil {
		t.Fatalf("read replies: %v", err)
	}
	return string(got)
}

// TestServerSplitStream: a pipelined stream cut into random chunks, many
// of them mid-frame, is answered byte for byte as when sent whole.
func TestServerSplitStream(t *testing.T) {
	var stream []byte
	for i := 0; i < 63; i++ {
		k := []byte(fmt.Sprintf("k%d", i%7))
		switch i % 6 {
		case 0:
			stream = EncodeCommand(stream, []byte("SET"), k, []byte(strings.Repeat("v", i)))
		case 1:
			stream = EncodeCommand(stream, []byte("GET"), k)
		case 2:
			stream = EncodeCommand(stream, []byte("INCR"), []byte("ctr"))
		case 3:
			stream = EncodeCommand(stream, []byte("MGET"), k, []byte("k0"), []byte("nope"))
		case 4:
			stream = EncodeCommand(stream, []byte("DEL"), k)
		case 5:
			stream = append(stream, "PING\r\n"...)
		}
	}
	stream = EncodeCommand(stream, []byte("QUIT"))

	want := pipeExchange(t, []string{string(stream)})
	if !strings.HasSuffix(want, "+OK\r\n") || strings.Count(want, "+PONG") != 10 {
		t.Fatalf("whole-stream replies look wrong: %q", want)
	}
	rng := rand.New(rand.NewSource(1))
	var chunks []string
	for rest := string(stream); rest != ""; {
		n := min(1+rng.Intn(24), len(rest))
		chunks = append(chunks, rest[:n])
		rest = rest[n:]
	}
	if got := pipeExchange(t, chunks); got != want {
		t.Fatalf("split stream replies differ:\n got %q\nwant %q", got, want)
	}
}

// TestServerDropsGrownReplyBuffer: once a large reply is written, the
// connection holds no more than flushThreshold of buffer capacity.
func TestServerDropsGrownReplyBuffer(t *testing.T) {
	s := NewServer(newMapBackend(), Options{})
	cli, c := servePipe(s)
	cli.SetDeadline(time.Now().Add(5 * time.Second))
	big := bytes.Repeat([]byte("x"), 1<<20)
	go func() {
		req := EncodeCommand(nil, []byte("ECHO"), big)
		io.WriteString(cli, string(EncodeCommand(req, []byte("QUIT"))))
	}()
	got, err := io.ReadAll(cli)
	cli.Close()
	s.wg.Wait()
	if want := string(AppendBulk(nil, big)) + "+OK\r\n"; err != nil || string(got) != want {
		t.Fatalf("replies: %d bytes, %v; want the 1 MiB echo then +OK", len(got), err)
	}
	if n := cap(c.buf); n > flushThreshold {
		t.Fatalf("connection holds a %d-byte reply buffer after the echo, want <= %d", n, flushThreshold)
	}
}
