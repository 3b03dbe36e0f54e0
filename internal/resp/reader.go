package resp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
)

// Reader parses RESP requests off a stream. Every frame dimension is
// bounded by Limits: argument counts, bulk lengths, and inline line
// lengths past the bound become ProtocolErrors instead of allocations.
//
// Torn frames (the peer died mid-command) surface as io.EOF or
// io.ErrUnexpectedEOF, never as a ProtocolError — a half-received
// command is a dead connection, not a protocol violation.
type Reader struct {
	br     *bufio.Reader
	lim    Limits
	staged []byte // the payloads of the command being read
}

// NewReader wraps r. A zero Limits takes the package defaults.
func NewReader(r io.Reader, lim Limits) *Reader {
	lim = lim.fill()
	size := 16 << 10
	return &Reader{br: bufio.NewReaderSize(r, size), lim: lim}
}

// ReadCommand returns the next command's arguments. An empty slice with
// a nil error means an empty line (or "*0") was received — the caller
// skips it. The returned sub-slices never alias the read buffer and
// remain valid after the next call.
func (r *Reader) ReadCommand() ([][]byte, error) {
	first, err := r.br.ReadByte()
	if err != nil {
		return nil, err
	}
	if first == '*' {
		return r.readMultiBulk()
	}
	if err := r.br.UnreadByte(); err != nil {
		return nil, err
	}
	return r.readInline()
}

// readLine reads up to CRLF (or a bare LF, which Redis tolerates on
// header lines), bounded by max bytes excluding the terminator. The
// returned slice may alias the buffered reader and is only valid until
// the next read. Oversized lines are rejected without being buffered —
// the connection is closing anyway, so nothing drains the remainder.
func (r *Reader) readLine(max int, what string) ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// Line longer than the read buffer: accumulate fragments until
		// the terminator or the bound, whichever comes first.
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull && len(long) <= max+2 {
			line, err = r.br.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if len(line) > max+2 {
		return nil, ProtocolError(fmt.Sprintf("too big %s line", what))
	}
	if err != nil {
		if err == io.EOF && len(line) > 0 {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	line = line[:len(line)-1] // strip \n
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	if len(line) > max {
		return nil, ProtocolError(fmt.Sprintf("too big %s line", what))
	}
	return line, nil
}

// parseLen parses a non-negative decimal with an upper bound; Redis's
// own parser rejects anything longer than a sane digit count, so
// overflow never materializes as a huge allocation.
func parseLen(digits []byte, max int, what string) (int, error) {
	if len(digits) == 0 || len(digits) > 12 {
		return 0, ProtocolError("invalid " + what)
	}
	n := 0
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, ProtocolError("invalid " + what)
		}
		n = n*10 + int(c-'0')
		if n > max {
			return 0, ProtocolError("invalid " + what)
		}
	}
	return n, nil
}

func (r *Reader) readMultiBulk() ([][]byte, error) {
	// The '*' is consumed; the rest of the line is the element count.
	header, err := r.readLine(16, "multibulk count")
	if err != nil {
		return nil, err
	}
	if len(header) > 0 && header[0] == '-' {
		// "*-1" is a null array; clients never send one as a request.
		return nil, ProtocolError("invalid multibulk length")
	}
	n, err := parseLen(header, r.lim.MaxArgs, "multibulk length")
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	args := make([][]byte, 0, n)
	r.staged = r.staged[:0]
	for i := 0; i < n; i++ {
		marker, err := r.br.ReadByte()
		if err != nil {
			return nil, tornEOF(err)
		}
		if marker != '$' {
			return nil, ProtocolError(fmt.Sprintf("expected '$', got '%c'", marker))
		}
		header, err := r.readLine(16, "bulk length")
		if err != nil {
			return nil, tornEOF(err)
		}
		size, err := parseLen(header, r.lim.MaxBulkBytes, "bulk length")
		if err != nil {
			return nil, err
		}
		off := len(r.staged)
		r.staged = slices.Grow(r.staged, size+2)[:off+size+2]
		buf := r.staged[off:]
		if _, err := io.ReadFull(r.br, buf); err != nil {
			return nil, tornEOF(err)
		}
		if buf[size] != '\r' || buf[size+1] != '\n' {
			return nil, ProtocolError("bulk payload not terminated by CRLF")
		}
		r.staged = r.staged[:off+size]
		args = append(args, buf[:size])
	}
	// One chunk of the payloads' exact size outlives the next command,
	// unlike staged. args point into staged (an older copy if it grew),
	// but only their lengths are used here.
	chunk := make([]byte, len(r.staged))
	copy(chunk, r.staged)
	for i, a := range args {
		args[i], chunk = chunk[:len(a):len(a)], chunk[len(a):]
	}
	if cap(r.staged) > 64<<10 {
		r.staged = nil // do not pin one large command's size
	}
	return args, nil
}

// readInline parses the telnet-friendly inline form: space-separated
// words on one line. Quoting is not supported (use multi-bulk for
// binary-safe arguments).
func (r *Reader) readInline() ([][]byte, error) {
	line, err := r.readLine(r.lim.MaxInlineBytes, "inline request")
	if err != nil {
		return nil, err
	}
	// Split a copy, as line aliases the read buffer (Fields caps each field).
	fields := bytes.Fields(append([]byte(nil), line...))
	if len(fields) > r.lim.MaxArgs {
		return nil, ProtocolError("invalid multibulk length")
	}
	return fields, nil
}

// tornEOF converts a mid-frame EOF into io.ErrUnexpectedEOF so callers
// can distinguish "clean close between commands" from "died mid-frame".
func tornEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
