// Package resp implements the Redis serialization protocol (RESP2) —
// the wire format stock redis-cli and redis-benchmark speak — and a TCP
// front end that serves it over any Backend.
//
// The package is split along the same seams as a real Redis server:
//
//   - Reader parses client requests (inline commands and multi-bulk
//     arrays) with every frame dimension bounded, so hostile or
//     corrupted input yields a protocol-error reply and a closed
//     connection, never a panic or an unbounded allocation.
//   - Append* encoders build replies (simple strings, errors, integers,
//     bulk strings, arrays) into caller-owned buffers, append-style.
//   - Dispatcher maps a parsed command to a Backend call and encodes
//     the reply, with per-command obs counters.
//   - Server owns the listener and one goroutine per connection, which
//     answers every command already received with one write.
//
// Protocol scope: RESP2 only. HELLO is answered with -NOPROTO so RESP3
// clients (redis-cli ≥ 6) negotiate themselves back down to RESP2.
package resp

import (
	"fmt"
	"strconv"
)

// Default frame bounds. MaxBulkBytes bounds one argument, MaxArgs one
// command's argument count, and MaxInlineBytes one inline request line.
// All three are per-connection-configurable through Limits.
const (
	DefaultMaxBulkBytes   = 4 << 20
	DefaultMaxArgs        = 1024
	DefaultMaxInlineBytes = 64 << 10
)

// Limits bounds the frames a Reader will accept. The zero value means
// "use the defaults"; explicit values must be positive.
type Limits struct {
	MaxBulkBytes   int // largest single bulk argument, bytes
	MaxArgs        int // most arguments in one command
	MaxInlineBytes int // longest inline command line, bytes
}

func (l Limits) fill() Limits {
	if l.MaxBulkBytes == 0 {
		l.MaxBulkBytes = DefaultMaxBulkBytes
	}
	if l.MaxArgs == 0 {
		l.MaxArgs = DefaultMaxArgs
	}
	if l.MaxInlineBytes == 0 {
		l.MaxInlineBytes = DefaultMaxInlineBytes
	}
	return l
}

// ProtocolError is a client-side framing violation: malformed length,
// missing CRLF, oversized frame. The server surfaces it to the client
// as "-ERR Protocol error: ..." and then closes the connection, the
// same contract Redis implements.
type ProtocolError string

// Error implements error.
func (e ProtocolError) Error() string { return "Protocol error: " + string(e) }

// ReplyError is an application-level error whose text is sent verbatim
// as a RESP error reply ("-<text>\r\n") without closing the connection.
// The leading word is the conventional error class (ERR, BUSY, LOADING,
// WRONGTYPE, ...). The text must not contain CR or LF.
type ReplyError string

// Error implements error.
func (e ReplyError) Error() string { return string(e) }

// ErrorReply renders any error as a RESP error-reply line: ReplyError
// text passes through verbatim, everything else is prefixed with "ERR".
func ErrorReply(err error) string {
	if re, ok := err.(ReplyError); ok {
		return string(re)
	}
	return "ERR " + err.Error()
}

var crlf = []byte("\r\n")

// AppendSimpleString appends "+s\r\n".
func AppendSimpleString(b []byte, s string) []byte {
	b = append(b, '+')
	b = append(b, s...)
	return append(b, crlf...)
}

// AppendError appends "-msg\r\n".
func AppendError(b []byte, msg string) []byte {
	b = append(b, '-')
	b = append(b, msg...)
	return append(b, crlf...)
}

// AppendInt appends ":n\r\n".
func AppendInt(b []byte, n int64) []byte {
	b = append(b, ':')
	b = strconv.AppendInt(b, n, 10)
	return append(b, crlf...)
}

// AppendBulk appends "$len\r\n<v>\r\n".
func AppendBulk(b, v []byte) []byte {
	b = append(b, '$')
	b = strconv.AppendInt(b, int64(len(v)), 10)
	b = append(b, crlf...)
	b = append(b, v...)
	return append(b, crlf...)
}

// AppendBulkString appends s as a bulk string.
func AppendBulkString(b []byte, s string) []byte {
	b = append(b, '$')
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, crlf...)
	b = append(b, s...)
	return append(b, crlf...)
}

// AppendNull appends the RESP2 null bulk string "$-1\r\n".
func AppendNull(b []byte) []byte { return append(b, "$-1\r\n"...) }

// AppendArray appends an array header "*n\r\n"; the caller appends the
// n elements afterwards.
func AppendArray(b []byte, n int) []byte {
	b = append(b, '*')
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, crlf...)
}

// EncodeCommand renders args as a RESP multi-bulk request — what a
// client sends on the wire. Test and fuzz harnesses round-trip through
// it; servers never need it.
func EncodeCommand(b []byte, args ...[]byte) []byte {
	b = AppendArray(b, len(args))
	for _, a := range args {
		b = AppendBulk(b, a)
	}
	return b
}

// wrongArity is the canonical arity-violation reply text.
func wrongArity(cmd string) ReplyError {
	return ReplyError(fmt.Sprintf("ERR wrong number of arguments for '%s' command", cmd))
}
