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
// ErrServerClosed. Each connection runs two goroutines: a read loop
// that parses and dispatches commands, and a buffered reply writer —
// pipelined clients keep parsing and execution ahead of the flush.
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
		go s.serveConn(conn)
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

// reply is one command's encoded reply on its way to the writer.
type reply struct {
	b         []byte
	acksWrite bool // must not leave before a Commit covers it
}

// serveConn runs one connection's read loop; replies flow to a writer
// goroutine over a bounded channel so a slow reader of our replies
// backpressures parsing instead of buffering without limit.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.untrack(conn)
	defer conn.Close()

	replies := make(chan reply, 64)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		writeLoop(conn, replies, s.commit)
	}()
	defer func() {
		close(replies)
		<-writerDone
	}()

	rd := NewReader(conn, s.opts.Limits)
	for {
		args, err := rd.ReadCommand()
		if err != nil {
			var pe ProtocolError
			if errors.As(err, &pe) {
				if s.protoErrs != nil {
					s.protoErrs.Inc()
				}
				replies <- reply{b: AppendError(nil, "ERR "+pe.Error())}
			}
			return
		}
		if len(args) == 0 {
			continue
		}
		out, quit, acks := s.disp.dispatch(args, nil)
		replies <- reply{b: out, acksWrite: acks}
		if quit {
			return
		}
	}
}

// writeLoop batches replies into one buffered writer, flushing only
// when no further reply is immediately pending — a pipelined burst of N
// commands goes out in one (or few) TCP segments. A batch that
// acknowledges a write is committed first (when c is non-nil), so the
// whole burst shares one fsync. The last reply always flushes, since
// the channel is empty when it arrives: QUIT and drain go through the
// same barrier.
func writeLoop(conn net.Conn, replies <-chan reply, c Committer) {
	const flushThreshold = 64 << 10
	buf := make([]byte, 0, 16<<10)
	uncommitted := false
	for r := range replies {
		buf = append(buf, r.b...)
		uncommitted = uncommitted || r.acksWrite
		if len(replies) > 0 && len(buf) < flushThreshold {
			continue
		}
		var err error
		if uncommitted && c != nil {
			err = c.Commit()
		}
		if err == nil {
			_, err = conn.Write(buf)
		}
		if err != nil {
			// Peer gone or commit failed: drop the batch and close, which
			// also ends the read loop; drain the channel so it never
			// blocks sending to it.
			conn.Close()
			for range replies {
			}
			return
		}
		buf, uncommitted = buf[:0], false
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
		// Wake blocking reads; the read loop treats the timeout as a
		// terminal condition, flushes pending replies, and closes.
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
