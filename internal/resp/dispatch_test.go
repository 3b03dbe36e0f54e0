package resp

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cxlsim/internal/obs"
)

// mapBackend is a plain concurrent map store for protocol-level tests.
type mapBackend struct {
	mu   sync.Mutex
	m    map[string][]byte
	fail error // when set, every data command returns it
}

func newMapBackend() *mapBackend { return &mapBackend{m: map[string][]byte{}} }

func (b *mapBackend) Get(key []byte) ([]byte, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fail != nil {
		return nil, false, b.fail
	}
	v, ok := b.m[string(key)]
	return v, ok, nil
}

func (b *mapBackend) Set(key, val []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fail != nil {
		return b.fail
	}
	b.m[string(key)] = append([]byte(nil), val...)
	return nil
}

func (b *mapBackend) Del(keys [][]byte) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fail != nil {
		return 0, b.fail
	}
	var n int64
	for _, k := range keys {
		if _, ok := b.m[string(k)]; ok {
			delete(b.m, string(k))
			n++
		}
	}
	return n, nil
}

func (b *mapBackend) Exists(keys [][]byte) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var n int64
	for _, k := range keys {
		if _, ok := b.m[string(k)]; ok {
			n++
		}
	}
	return n, nil
}

func (b *mapBackend) Incr(key []byte) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var n int64
	if v, ok := b.m[string(key)]; ok {
		var err error
		if n, err = strconv.ParseInt(string(v), 10, 64); err != nil {
			return 0, ReplyError("ERR value is not an integer or out of range")
		}
	}
	n++
	b.m[string(key)] = []byte(strconv.FormatInt(n, 10))
	return n, nil
}

func (b *mapBackend) MGet(keys [][]byte) ([][]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([][]byte, len(keys))
	for i, k := range keys {
		if v, ok := b.m[string(k)]; ok {
			out[i] = v
		}
	}
	return out, nil
}

func (b *mapBackend) MSet(pairs [][]byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := 0; i+1 < len(pairs); i += 2 {
		b.m[string(pairs[i])] = append([]byte(nil), pairs[i+1]...)
	}
	return nil
}

func (b *mapBackend) Info() string { return "role:master\r\n" }

func args(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

func TestDispatchTable(t *testing.T) {
	b := newMapBackend()
	d := NewDispatcher(b)
	cases := []struct {
		cmd  []string
		want string
	}{
		{[]string{"PING"}, "+PONG\r\n"},
		{[]string{"ping", "hello"}, "$5\r\nhello\r\n"},
		{[]string{"ECHO", "hi"}, "$2\r\nhi\r\n"},
		{[]string{"GET", "missing"}, "$-1\r\n"},
		{[]string{"SET", "k", "v"}, "+OK\r\n"},
		{[]string{"GET", "k"}, "$1\r\nv\r\n"},
		{[]string{"EXISTS", "k", "missing", "k"}, ":2\r\n"},
		{[]string{"INCR", "ctr"}, ":1\r\n"},
		{[]string{"INCR", "ctr"}, ":2\r\n"},
		{[]string{"INCR", "k"}, "-ERR value is not an integer or out of range\r\n"},
		{[]string{"MSET", "a", "1", "b", "2"}, "+OK\r\n"},
		{[]string{"MGET", "a", "nope", "b"}, "*3\r\n$1\r\n1\r\n$-1\r\n$1\r\n2\r\n"},
		{[]string{"DEL", "a", "nope", "b"}, ":2\r\n"},
		{[]string{"SELECT", "3"}, "+OK\r\n"},
		{[]string{"COMMAND", "DOCS"}, "*0\r\n"},
		{[]string{"CONFIG", "GET", "appendonly"}, "*2\r\n$10\r\nappendonly\r\n$2\r\nno\r\n"},
		{[]string{"CONFIG", "GET", "save"}, "*2\r\n$4\r\nsave\r\n$0\r\n\r\n"},
		{[]string{"CONFIG", "SET", "maxmemory", "0"}, "+OK\r\n"},
		{[]string{"HELLO", "3"}, "-NOPROTO unsupported protocol version\r\n"},
		{[]string{"GET"}, "-ERR wrong number of arguments for 'get' command\r\n"},
		{[]string{"SET", "k"}, "-ERR wrong number of arguments for 'set' command\r\n"},
		{[]string{"MSET", "k"}, "-ERR wrong number of arguments for 'mset' command\r\n"},
		{[]string{"NOPE", "x"}, "-ERR unknown command 'NOPE'\r\n"},
		{[]string{"evil\r\ncmd"}, "-ERR unknown command 'evil  cmd'\r\n"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.cmd, " "), func(t *testing.T) {
			got, quit := d.Dispatch(args(tc.cmd...), nil)
			if quit {
				t.Fatal("unexpected quit")
			}
			if string(got) != tc.want {
				t.Fatalf("reply %q, want %q", got, tc.want)
			}
		})
	}

	if reply, quit := d.Dispatch(args("QUIT"), nil); !quit || string(reply) != "+OK\r\n" {
		t.Fatalf("QUIT: reply %q quit %v", reply, quit)
	}
}

func TestDispatchErrorMapping(t *testing.T) {
	b := newMapBackend()
	d := NewDispatcher(b)

	b.fail = ReplyError("BUSY spill tier browned out")
	if got, _ := d.Dispatch(args("SET", "k", "v"), nil); string(got) != "-BUSY spill tier browned out\r\n" {
		t.Fatalf("ReplyError not passed verbatim: %q", got)
	}
	b.fail = fmt.Errorf("disk on fire")
	if got, _ := d.Dispatch(args("GET", "k"), nil); string(got) != "-ERR disk on fire\r\n" {
		t.Fatalf("plain error not wrapped as -ERR: %q", got)
	}
}

func TestDispatchMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	d := NewDispatcher(newMapBackend())
	d.Instrument(reg)

	d.Dispatch(args("PING"), nil)
	d.Dispatch(args("GET", "k"), nil)
	d.Dispatch(args("GET"), nil)               // arity error
	d.Dispatch(args("WHATEVER-8291"), nil)     // unknown → bounded label
	d.Dispatch(args("ANOTHER-UNKNOWN-X"), nil) // same label

	snap := reg.Snapshot()
	cmds, ok := snap.Find(obs.MetricRESPCommands)
	if !ok {
		t.Fatal("resp_commands_total missing")
	}
	byLabel := map[string]float64{}
	for _, m := range cmds.Metrics {
		byLabel[m.LabelValues[0]] = m.Value
	}
	if byLabel["ping"] != 1 || byLabel["get"] != 2 || byLabel["unknown"] != 2 {
		t.Fatalf("command counters wrong: %v", byLabel)
	}
	errs, _ := snap.Find(obs.MetricRESPErrors)
	errByLabel := map[string]float64{}
	for _, m := range errs.Metrics {
		errByLabel[m.LabelValues[0]] = m.Value
	}
	if errByLabel["get"] != 1 || errByLabel["unknown"] != 2 {
		t.Fatalf("error counters wrong: %v", errByLabel)
	}
}

// TestDispatchAllocs pins the hot path: a GET into a reused buffer
// allocates nothing, with or without metrics.
func TestDispatchAllocs(t *testing.T) {
	b := newMapBackend()
	b.Set([]byte("k"), []byte("v"))
	get := args("GET", "k")
	buf := make([]byte, 0, 64)
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		d := NewDispatcher(b)
		d.Instrument(reg)
		if n := testing.AllocsPerRun(100, func() { buf, _ = d.Dispatch(get, buf[:0]) }); n != 0 {
			t.Errorf("GET k (instrumented=%v) allocates %v times, want 0", reg != nil, n)
		}
	}
}
