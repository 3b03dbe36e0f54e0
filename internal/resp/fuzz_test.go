package resp

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// FuzzRESPDecode drives hostile bytes through the request parser. The
// invariants: no panic, no unbounded allocation (limits are tight), and
// every command the parser accepts must survive a round-trip through
// EncodeCommand — re-encoding and re-parsing yields the same arguments.
func FuzzRESPDecode(f *testing.F) {
	seeds := []string{
		"*2\r\n$3\r\nGET\r\n$3\r\nfoo\r\n",
		"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n",
		"*1\r\n$4\r\nPING\r\n",
		"*2\r\n$4\r\nECHO\r\n$0\r\n\r\n",
		"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$4\r\n\x00\r\n\xff\r\n",
		"PING\r\n",
		"SET key value\r\n",
		"\r\n",
		"*0\r\n",
		"*2\r\n$3\r\nGE",     // torn
		"*-1\r\n",            // negative count
		"*1\r\n:3\r\n",       // wrong marker
		"*1\r\n$3\r\nfooXX",  // missing CRLF
		"*9999999999999\r\n", // count overflow
		"$5\r\nhello\r\n",    // reply-typed frame as a request (inline)
		strings.Repeat("a", 300) + "\r\nPING\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	lim := Limits{MaxBulkBytes: 256, MaxArgs: 8, MaxInlineBytes: 128}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data), lim)
		for i := 0; i < 64; i++ {
			args, err := r.ReadCommand()
			if err != nil {
				var pe ProtocolError
				if !errors.As(err, &pe) && err != io.EOF && err != io.ErrUnexpectedEOF {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			if len(args) == 0 {
				continue
			}
			// Round-trip: what the parser accepted must re-encode and
			// re-parse identically.
			enc := EncodeCommand(nil, args...)
			back, err := NewReader(bytes.NewReader(enc), lim.roundTrip()).ReadCommand()
			if err != nil {
				t.Fatalf("round-trip re-parse failed: %v (encoded %q)", err, enc)
			}
			if len(back) != len(args) {
				t.Fatalf("round-trip arg count %d != %d", len(back), len(args))
			}
			for j := range args {
				if !bytes.Equal(back[j], args[j]) {
					t.Fatalf("round-trip arg %d: %q != %q", j, back[j], args[j])
				}
			}
		}
	})
}

// roundTrip widens the bulk bound to cover inline-sourced arguments: an
// inline field can be up to MaxInlineBytes long, and the re-encoded
// multi-bulk form must still fit under the re-parse limits.
func (l Limits) roundTrip() Limits {
	l = l.fill()
	if l.MaxBulkBytes < l.MaxInlineBytes {
		l.MaxBulkBytes = l.MaxInlineBytes
	}
	return l
}
