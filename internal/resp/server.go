package resp

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"cxlsim/internal/obs"
)

// ErrServerClosed is returned by Serve after Shutdown, mirroring
// net/http's contract so callers can share their drain logic.
var ErrServerClosed = errors.New("resp: server closed")

// DefaultMaxConns caps simultaneous connections when Options leaves
// MaxConns zero.
const DefaultMaxConns = 256

// Options configures a Server.
type Options struct {
	// MaxConns caps simultaneous connections (default DefaultMaxConns);
	// excess clients get "-ERR max number of clients reached" and an
	// immediate close, Redis's own behavior at maxclients.
	MaxConns int
	// Limits bounds request frames (zero values take package defaults).
	Limits Limits
	// Registry, when non-nil, receives connection-level and per-command
	// metrics.
	Registry *obs.Registry
}

// Server is a RESP front end over a Backend. Create with NewServer,
// start with Serve, stop with Shutdown.
type Server struct {
	disp   *Dispatcher
	commit Committer // nil unless the backend is one
	opts   Options

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool

	wg sync.WaitGroup

	connsOpen  *obs.Gauge
	connsTotal *obs.Counter
	connsRej   *obs.Counter
	protoErrs  *obs.Counter
}

// NewServer builds a server over b. The dispatcher's and server's
// metrics land in opts.Registry when set.
func NewServer(b Backend, opts Options) *Server {
	if opts.MaxConns <= 0 {
		opts.MaxConns = DefaultMaxConns
	}
	opts.Limits = opts.Limits.fill()
	s := &Server{
		disp:  NewDispatcher(b),
		opts:  opts,
		conns: map[net.Conn]struct{}{},
	}
	s.commit, _ = b.(Committer)
	if reg := opts.Registry; reg != nil {
		s.disp.Instrument(reg)
		s.connsOpen = reg.Gauge(obs.MetricRESPConnsOpen, "RESP connections currently open")
		s.connsTotal = reg.Counter(obs.MetricRESPConnsTotal, "RESP connections accepted")
		s.connsRej = reg.Counter(obs.MetricRESPConnsRejected, "RESP connections rejected at the MaxConns cap")
		s.protoErrs = reg.Counter(obs.MetricRESPProtocolErrors, "RESP protocol errors (connection closed after reply)")
	}
	return s
}

// Serve accepts connections on ln until Shutdown, then returns
// ErrServerClosed. Each connection runs one goroutine, which answers a
// pipelined burst with one write (see serveConn).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		if !s.track(conn) {
			if s.connsRej != nil {
				s.connsRej.Inc()
			}
			conn.Write([]byte("-ERR max number of clients reached\r\n"))
			conn.Close()
			continue
		}
		s.wg.Add(1)
		go s.serveConn(&replyConn{Conn: conn, commit: s.commit, buf: make([]byte, 0, replyBufSize)})
	}
}

// track registers conn unless the server is draining or full.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || len(s.conns) >= s.opts.MaxConns {
		return false
	}
	s.conns[conn] = struct{}{}
	if s.connsTotal != nil {
		s.connsTotal.Inc()
		s.connsOpen.Set(float64(len(s.conns)))
	}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	if s.connsOpen != nil {
		s.connsOpen.Set(float64(len(s.conns)))
	}
	s.mu.Unlock()
}

// flushThreshold bounds the replies a connection holds: past it they go
// out mid-burst, and a buffer grown beyond it is dropped once written,
// so one large reply does not pin its size for the connection's life.
const (
	flushThreshold = 64 << 10
	replyBufSize   = 16 << 10 // a reply buffer's initial capacity
)

// replyConn is a client connection plus the replies dispatched since its
// last write. Its Read writes them (committing first when one
// acknowledges a write) and then reads the socket: the Reader's bufio
// layer calls Read only when it needs bytes it does not hold, so every
// command already received is answered in one write, and no reply waits
// behind a half-received frame.
type replyConn struct {
	net.Conn
	commit      Committer // nil unless the backend is one
	buf         []byte
	uncommitted bool // buf holds a write ack no Commit covers yet
}

func (c *replyConn) Read(p []byte) (int, error) {
	if err := c.flush(); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

// flush writes the held replies. A write that blocks on a slow reader
// of replies stops parsing too, so memory stays bounded. An error (peer
// gone or commit failed) drops the batch; the caller closes.
func (c *replyConn) flush() (err error) {
	if len(c.buf) == 0 {
		return nil
	}
	if c.uncommitted && c.commit != nil {
		err = c.commit.Commit()
	}
	if err == nil {
		_, err = c.Conn.Write(c.buf)
	}
	if cap(c.buf) > flushThreshold {
		c.buf = make([]byte, 0, replyBufSize)
	}
	c.buf, c.uncommitted = c.buf[:0], false
	return err
}

// serveConn runs one connection: it dispatches each command into c's
// reply buffer, which goes out before the next socket read, past
// flushThreshold, and on return (after QUIT or a protocol error).
func (s *Server) serveConn(c *replyConn) {
	defer s.wg.Done()
	defer s.untrack(c.Conn)
	defer c.Close()
	defer c.flush()

	rd := NewReader(c, s.opts.Limits)
	for {
		args, err := rd.ReadCommand()
		var pe ProtocolError
		if errors.As(err, &pe) {
			if s.protoErrs != nil {
				s.protoErrs.Inc()
			}
			c.buf = AppendError(c.buf, "ERR "+pe.Error())
		}
		if err != nil {
			return
		}
		if len(args) == 0 {
			continue
		}
		var quit, acks bool
		c.buf, quit, acks = s.disp.dispatch(args, c.buf)
		c.uncommitted = c.uncommitted || acks
		if quit || len(c.buf) >= flushThreshold && c.flush() != nil {
			return // QUIT's reply goes out in the deferred flush
		}
	}
}

// Shutdown gracefully drains the server: the listener closes, read
// loops are woken via read deadlines, in-flight replies flush, and
// connections close. It waits for every connection goroutine up to
// ctx's deadline, then force-closes stragglers. Safe to call more than
// once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	for conn := range s.conns {
		// Wake blocking reads: replies already due go out before the
		// read that times out, which ends the connection.
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}
