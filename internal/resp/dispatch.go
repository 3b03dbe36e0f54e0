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

// knownCommands bounds the metric label space: everything else counts
// under "unknown" so a hostile client cannot mint unbounded label
// values.
var knownCommands = map[string]bool{
	"get": true, "set": true, "del": true, "exists": true, "incr": true,
	"mget": true, "mset": true, "ping": true, "echo": true, "info": true,
	"config": true, "command": true, "select": true, "quit": true,
	"hello": true,
}

// writeCommands are the commands whose success reply acknowledges a
// write.
var writeCommands = map[string]bool{"set": true, "del": true, "incr": true, "mset": true}

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
	cmd := strings.ToLower(string(args[0]))
	label := cmd
	if !knownCommands[label] {
		label = "unknown"
	}
	if d.cmds != nil {
		d.cmds.With(label).Inc()
	}
	before := len(out)
	out, quit = d.exec(cmd, args, out)
	failed := len(out) > before && out[before] == '-'
	if d.errs != nil && failed {
		d.errs.With(label).Inc()
	}
	return out, quit, writeCommands[cmd] && !failed
}

func (d *Dispatcher) exec(cmd string, args [][]byte, out []byte) ([]byte, bool) {
	switch cmd {
	case "get":
		if len(args) != 2 {
			return AppendError(out, string(wrongArity(cmd))), false
		}
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
		if len(args) != 3 {
			return AppendError(out, string(wrongArity(cmd))), false
		}
		if err := d.b.Set(args[1], args[2]); err != nil {
			return AppendError(out, ErrorReply(err)), false
		}
		return AppendSimpleString(out, "OK"), false

	case "del":
		if len(args) < 2 {
			return AppendError(out, string(wrongArity(cmd))), false
		}
		n, err := d.b.Del(args[1:])
		if err != nil {
			return AppendError(out, ErrorReply(err)), false
		}
		return AppendInt(out, n), false

	case "exists":
		if len(args) < 2 {
			return AppendError(out, string(wrongArity(cmd))), false
		}
		n, err := d.b.Exists(args[1:])
		if err != nil {
			return AppendError(out, ErrorReply(err)), false
		}
		return AppendInt(out, n), false

	case "incr":
		if len(args) != 2 {
			return AppendError(out, string(wrongArity(cmd))), false
		}
		n, err := d.b.Incr(args[1])
		if err != nil {
			return AppendError(out, ErrorReply(err)), false
		}
		return AppendInt(out, n), false

	case "mget":
		if len(args) < 2 {
			return AppendError(out, string(wrongArity(cmd))), false
		}
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
		if len(args) < 3 || len(args)%2 != 1 {
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
		if len(args) != 2 {
			return AppendError(out, string(wrongArity(cmd))), false
		}
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
		if len(args) != 2 {
			return AppendError(out, string(wrongArity(cmd))), false
		}
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
