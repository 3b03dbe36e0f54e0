package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strconv"
	"sync"
	"time"

	"cxlsim/internal/resp"
)

type rtts struct{ get, set []float64 }

// stream generates one client's commands and checks their replies.
// Client c writes only keys k with k%respClients == c, so it knows what
// each of its keys must read back; a key the other client owns must
// hold a well-formed value for that key.
type stream struct {
	id      int
	sp      respSpec
	rng     *rand.Rand
	ver     []uint32 // last version written, per owned key (index k/respClients)
	pend    []expect // commands encoded in buf, awaiting replies in order
	buf     []byte
	kb, vb  []byte
	written int64 // key and value bytes sent in SETs
}

type expect struct {
	get bool
	key uint32
	ver uint32 // a SET's new version; an owned key's version for a GET
}

var (
	cmdGet = []byte("GET")
	cmdSet = []byte("SET")
)

func newStream(id int, sp respSpec, seed int64) *stream {
	return &stream{id: id, sp: sp,
		rng: rand.New(rand.NewSource(seed*1_000_003 + int64(id))),
		ver: make([]uint32, sp.keys/respClients)}
}

func keyBytes(dst []byte, k uint32) []byte { return fmt.Appendf(dst[:0], "key:%07d", k) }

// valueBytes is key k's value at version v: a header naming both, padded
// to valueLen with a byte derived from them, so any client can verify a
// value it did not write.
func valueBytes(dst []byte, k, v uint32) []byte {
	dst = fmt.Appendf(dst[:0], "%07d:%010d:", k, v)
	for len(dst) < valueLen {
		dst = append(dst, byte('a'+(k+v)%26))
	}
	return dst
}

func (s *stream) owns(k uint32) bool { return int(k)%respClients == s.id }

func (s *stream) set(k uint32) {
	i := k / respClients
	s.ver[i]++
	s.kb, s.vb = keyBytes(s.kb, k), valueBytes(s.vb, k, s.ver[i])
	s.buf = resp.EncodeCommand(s.buf, cmdSet, s.kb, s.vb)
	s.written += int64(len(s.kb) + len(s.vb))
	s.pend = append(s.pend, expect{key: k, ver: s.ver[i]})
}

func (s *stream) get(k uint32) {
	x := expect{get: true, key: k}
	if s.owns(k) {
		x.ver = s.ver[k/respClients]
	}
	s.kb = keyBytes(s.kb, k)
	s.buf = resp.EncodeCommand(s.buf, cmdGet, s.kb)
	s.pend = append(s.pend, x)
}

// mixed queues one command of the workload's mix: a GET of any key or a
// SET of an owned key, keys drawn uniformly.
func (s *stream) mixed() {
	k := uint32(s.rng.Intn(s.sp.keys))
	if s.rng.Float64() < s.sp.getFrac {
		s.get(k)
		return
	}
	s.set(k - k%respClients + uint32(s.id))
}

// ok checks one reply against what its command must return.
func (s *stream) ok(x expect, kind byte, val []byte) bool {
	if !x.get {
		return kind == '+' && string(val) == "OK"
	}
	if kind != '$' || len(val) != valueLen || val[7] != ':' || val[18] != ':' {
		return false
	}
	k, err1 := strconv.ParseUint(string(val[:7]), 10, 32)
	v, err2 := strconv.ParseUint(string(val[8:18]), 10, 32)
	if err1 != nil || err2 != nil || uint32(k) != x.key || (s.owns(x.key) && uint32(v) != x.ver) {
		return false
	}
	s.vb = valueBytes(s.vb, uint32(k), uint32(v))
	return bytes.Equal(val, s.vb)
}

// readReply reads one RESP2 reply: its type byte and payload (nil for a
// null bulk string). The payload is valid until the next read.
func readReply(r *bufio.Reader, scratch *[]byte) (byte, []byte, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 3 {
		return 0, nil, fmt.Errorf("short reply %q", line)
	}
	kind, body := line[0], line[1:len(line)-2]
	if kind != '$' {
		return kind, body, nil
	}
	n, err := strconv.Atoi(string(body))
	if err != nil {
		return 0, nil, fmt.Errorf("bad bulk length %q", body)
	}
	if n < 0 {
		return kind, nil, nil
	}
	if cap(*scratch) < n+2 {
		*scratch = make([]byte, n+2)
	}
	b := (*scratch)[:n+2]
	if _, err := io.ReadFull(r, b); err != nil {
		return 0, nil, err
	}
	return kind, b[:n], nil
}

// client is a stream bound to one connection.
type client struct {
	*stream
	conn    net.Conn
	r       *bufio.Reader
	scratch []byte
}

func dial(addr string, streams []*stream) ([]*client, error) {
	var cs []*client
	for _, st := range streams {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, &client{stream: st, conn: conn, r: bufio.NewReaderSize(conn, 64<<10)})
	}
	return cs, nil
}

func closeAll(cs []*client) {
	for _, c := range cs {
		c.conn.Close()
	}
}

// both runs fn for every client at once and waits for all of them.
func both(cs []*client, fn func(c *client) error) error {
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = fn(c)
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// exchange sends the queued commands and reads and checks one reply
// each.
func (c *client) exchange(t *tally) error {
	if err := c.conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return err
	}
	if _, err := c.conn.Write(c.buf); err != nil {
		return err
	}
	for _, x := range c.pend {
		kind, val, err := readReply(c.r, &c.scratch)
		if err != nil {
			return err
		}
		ok := c.ok(x, kind, val)
		t.check(ok)
		if !ok && kind == '-' {
			fmt.Fprintf(os.Stderr, "cxlperf: error reply %q\n", val)
		}
	}
	c.buf, c.pend = c.buf[:0], c.pend[:0]
	return nil
}

// owned applies op (set or get) to every key the client owns, depth
// commands per exchange.
func (c *client) owned(t *tally, op func(uint32)) error {
	for k := c.id; k < c.sp.keys; k += respClients {
		op(uint32(k))
		if len(c.pend) == pipeDepth || k+respClients >= c.sp.keys {
			if err := c.exchange(t); err != nil {
				return err
			}
		}
	}
	return nil
}

// run sends mixed traffic, depth commands per exchange, until n commands
// have gone (n > 0) or until the deadline. With lat set it records each
// exchange's round trip in seconds, by command.
func (c *client) run(t *tally, depth, n int, until time.Time, lat *rtts) error {
	for sent := 0; (n > 0 && sent < n) || (n == 0 && time.Now().Before(until)); {
		d := depth
		if n > 0 {
			d = min(depth, n-sent)
		}
		for i := 0; i < d; i++ {
			c.mixed()
		}
		get := c.pend[0].get
		t0 := time.Now()
		if err := c.exchange(t); err != nil {
			return err
		}
		if lat != nil {
			rt := time.Since(t0).Seconds()
			if get {
				lat.get = append(lat.get, rt)
			} else {
				lat.set = append(lat.set, rt)
			}
		}
		sent += d
	}
	return nil
}
