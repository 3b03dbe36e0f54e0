package resp

import (
	"strings"

	"cxlsim/internal/obs"
)

// Backend is the storage engine behind the data commands. Implementations
// must be safe for concurrent use — the server dispatches from one
// goroutine per connection.
//
// Errors of type ReplyError reach the client verbatim (the brownout
// contract: a degraded durable tier surfaces as -BUSY on writes and
// -LOADING on disk-backed reads); any other error is wrapped as -ERR.
type Backend interface {
	// Get returns the value for key; ok is false when absent.
	Get(key []byte) (val []byte, ok bool, err error)
	// Set stores key=val.
	Set(key, val []byte) error
	// Del removes keys, returning how many existed.
	Del(keys [][]byte) (int64, error)
	// Exists counts how many of keys exist (duplicates counted again).
	Exists(keys [][]byte) (int64, error)
	// Incr adds one to the integer at key (missing ⇒ 0) and returns it.
	Incr(key []byte) (int64, error)
	// MGet returns one value per key, nil for missing keys.
	MGet(keys [][]byte) ([][]byte, error)
	// MSet stores key/value pairs; pairs is [k1, v1, k2, v2, ...].
	MSet(pairs [][]byte) error
	// Info renders the INFO reply body (Redis's "key:value" lines).
	Info() string
}

// Committer is an optional Backend extension for a durable backend that
// appends writes before they are on stable storage. Commit returns once
// every write the backend has applied so far, on any connection, is
// durable. The server calls it before it flushes a batch of replies that
// acknowledges a write, so one Commit covers a whole pipelined burst and
// the concurrent writes of other connections. An error drops the batch
// and closes the connection, as a crash would.
type Committer interface {
	Commit() error
}

// Dispatcher routes parsed commands to a Backend and encodes replies.
type Dispatcher struct {
	b Backend

	// Per-command observability; nil until Instrument.
	cmds *obs.CounterVec
	errs *obs.CounterVec
}

// NewDispatcher returns a dispatcher over b.
func NewDispatcher(b Backend) *Dispatcher { return &Dispatcher{b: b} }

// Instrument publishes per-command request and error counters into reg.
func (d *Dispatcher) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	d.cmds = reg.CounterVec(obs.MetricRESPCommands, "RESP commands dispatched", "cmd")
	d.errs = reg.CounterVec(obs.MetricRESPErrors, "RESP commands answered with an error reply", "cmd")
}

// command is a known command: its lower-case name, interned so that it
// labels metrics without allocating; its arity in Redis's convention (n:
// exactly n arguments, the name included; -n: at least n); and whether
// its success reply acknowledges a write.
type command struct {
	name  string
	arity int
	write bool
}

// knownCommands bounds the metric label space: everything else counts
// under "unknown" so a hostile client cannot mint unbounded label
// values.
var knownCommands = map[string]command{
	"get": {"get", 2, false}, "set": {"set", 3, true}, "del": {"del", -2, true},
	"exists": {"exists", -2, false}, "incr": {"incr", 2, true},
	"mget": {"mget", -2, false}, "mset": {"mset", -3, true},
	"ping": {"ping", -1, false}, "echo": {"echo", 2, false},
	"info": {"info", -1, false}, "config": {"config", -1, false},
	"command": {"command", -1, false}, "select": {"select", 2, false},
	"quit": {"quit", -1, false}, "hello": {"hello", -1, false},
}

// lookupCommand returns the known command arg names, in any case, or
// an "unknown" entry, without allocating.
func lookupCommand(arg []byte) command {
	var lower [7]byte // as long as the longest known name
	if len(arg) <= len(lower) {
		for i, c := range arg {
			lower[i] = c | 0x20 // lower-cases A-Z and turns no other byte into a letter
		}
		if c, ok := knownCommands[string(lower[:len(arg)])]; ok {
			return c
		}
	}
	return command{name: "unknown", arity: -1}
}

// Dispatch executes one command, appending its reply to out and
// returning the extended buffer. quit reports that the client asked to
// close (QUIT) after the reply is flushed. Empty argument lists are the
// caller's to skip.
func (d *Dispatcher) Dispatch(args [][]byte, out []byte) (reply []byte, quit bool) {
	reply, quit, _ = d.dispatch(args, out)
	return reply, quit
}

// dispatch is Dispatch that also reports whether the reply acknowledges
// a write, which the server must commit before flushing it.
func (d *Dispatcher) dispatch(args [][]byte, out []byte) (reply []byte, quit, acksWrite bool) {
	c := lookupCommand(args[0])
	if d.cmds != nil {
		d.cmds.With(c.name).Inc()
	}
	before := len(out)
	if c.arity > 0 && len(args) != c.arity || len(args) < -c.arity {
		out = AppendError(out, string(wrongArity(c.name)))
	} else {
		out, quit = d.exec(c.name, args, out)
	}
	failed := len(out) > before && out[before] == '-'
	if d.errs != nil && failed {
		d.errs.With(c.name).Inc()
	}
	return out, quit, c.write && !failed
}

func (d *Dispatcher) exec(cmd string, args [][]byte, out []byte) ([]byte, bool) {
	switch cmd {
	case "get":
		v, ok, err := d.b.Get(args[1])
		if err != nil {
			return AppendError(out, ErrorReply(err)), false
		}
		if !ok {
			return AppendNull(out), false
		}
		return AppendBulk(out, v), false

	case "set":
		// Plain two-argument SET only; the EX/PX/NX/XX options are not
		// modeled (redis-benchmark's SET workload never sends them).
		if err := d.b.Set(args[1], args[2]); err != nil {
			return AppendError(out, ErrorReply(err)), false
		}
		return AppendSimpleString(out, "OK"), false

	case "del":
		n, err := d.b.Del(args[1:])
		if err != nil {
			return AppendError(out, ErrorReply(err)), false
		}
		return AppendInt(out, n), false

	case "exists":
		n, err := d.b.Exists(args[1:])
		if err != nil {
			return AppendError(out, ErrorReply(err)), false
		}
		return AppendInt(out, n), false

	case "incr":
		n, err := d.b.Incr(args[1])
		if err != nil {
			return AppendError(out, ErrorReply(err)), false
		}
		return AppendInt(out, n), false

	case "mget":
		vals, err := d.b.MGet(args[1:])
		if err != nil {
			return AppendError(out, ErrorReply(err)), false
		}
		out = AppendArray(out, len(vals))
		for _, v := range vals {
			if v == nil {
				out = AppendNull(out)
			} else {
				out = AppendBulk(out, v)
			}
		}
		return out, false

	case "mset":
		if len(args)%2 != 1 {
			return AppendError(out, string(wrongArity(cmd))), false
		}
		if err := d.b.MSet(args[1:]); err != nil {
			return AppendError(out, ErrorReply(err)), false
		}
		return AppendSimpleString(out, "OK"), false

	case "ping":
		switch len(args) {
		case 1:
			return AppendSimpleString(out, "PONG"), false
		case 2:
			return AppendBulk(out, args[1]), false
		}
		return AppendError(out, string(wrongArity(cmd))), false

	case "echo":
		return AppendBulk(out, args[1]), false

	case "info":
		return AppendBulkString(out, d.b.Info()), false

	case "config":
		// redis-benchmark probes CONFIG GET save / appendonly at startup;
		// answer with inert values so it proceeds. CONFIG SET is accepted
		// and ignored — there is no live reconfiguration surface here.
		if len(args) >= 3 && strings.EqualFold(string(args[1]), "get") {
			out = AppendArray(out, 2)
			out = AppendBulk(out, args[2])
			switch strings.ToLower(string(args[2])) {
			case "appendonly":
				out = AppendBulkString(out, "no")
			case "maxmemory":
				out = AppendBulkString(out, "0")
			default:
				out = AppendBulkString(out, "")
			}
			return out, false
		}
		if len(args) >= 2 && strings.EqualFold(string(args[1]), "set") {
			return AppendSimpleString(out, "OK"), false
		}
		return AppendError(out, "ERR unknown CONFIG subcommand"), false

	case "command":
		// COMMAND [DOCS|COUNT|...]: clients only use this to size tab
		// completion; an empty array (or zero count) is a valid answer.
		if len(args) >= 2 && strings.EqualFold(string(args[1]), "count") {
			return AppendInt(out, int64(len(knownCommands))), false
		}
		return AppendArray(out, 0), false

	case "select":
		// Single keyspace: accept any database index.
		return AppendSimpleString(out, "OK"), false

	case "quit":
		return AppendSimpleString(out, "OK"), true

	case "hello":
		// RESP3 negotiation: refusing makes redis-cli ≥ 6 fall back to
		// RESP2, which is all this front end speaks.
		return AppendError(out, "NOPROTO unsupported protocol version"), false
	}
	return AppendError(out, "ERR unknown command '"+sanitize(string(args[0]))+"'"), false
}

// sanitize strips CR/LF from client-supplied text echoed into error
// replies, so a hostile command name cannot inject protocol frames.
func sanitize(s string) string {
	if len(s) > 64 {
		s = s[:64]
	}
	return strings.Map(func(r rune) rune {
		if r == '\r' || r == '\n' {
			return ' '
		}
		return r
	}, s)
}
