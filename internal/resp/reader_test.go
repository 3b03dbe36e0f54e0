package resp

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// readAll parses every command in input with the given limits,
// returning the commands plus the terminal error.
func readAll(t *testing.T, input string, lim Limits) ([][][]byte, error) {
	t.Helper()
	r := NewReader(strings.NewReader(input), lim)
	var cmds [][][]byte
	for {
		args, err := r.ReadCommand()
		if err != nil {
			return cmds, err
		}
		if len(args) > 0 {
			cmds = append(cmds, args)
		}
	}
}

func TestReadCommandTable(t *testing.T) {
	tight := Limits{MaxBulkBytes: 16, MaxArgs: 4, MaxInlineBytes: 32}
	cases := []struct {
		name  string
		input string
		lim   Limits
		want  [][]string // parsed commands
		err   string     // "" ⇒ clean EOF; "proto" ⇒ ProtocolError; "torn" ⇒ unexpected EOF
	}{
		{name: "multibulk get", input: "*2\r\n$3\r\nGET\r\n$3\r\nfoo\r\n",
			want: [][]string{{"GET", "foo"}}},
		{name: "multibulk empty value", input: "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$0\r\n\r\n",
			want: [][]string{{"SET", "k", ""}}},
		{name: "binary value", input: "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$4\r\n\x00\r\n\xff\r\n",
			want: [][]string{{"SET", "k", "\x00\r\n\xff"}}},
		{name: "pipelined", input: "*1\r\n$4\r\nPING\r\n*1\r\n$4\r\nPING\r\n",
			want: [][]string{{"PING"}, {"PING"}}},
		{name: "inline", input: "PING\r\n", want: [][]string{{"PING"}}},
		{name: "inline bare lf", input: "SET k v\n", want: [][]string{{"SET", "k", "v"}}},
		{name: "inline extra spaces", input: "  SET   k\t v \r\n", want: [][]string{{"SET", "k", "v"}}},
		{name: "empty inline skipped", input: "\r\n\r\nPING\r\n", want: [][]string{{"PING"}}},
		{name: "star zero skipped", input: "*0\r\nPING\r\n", want: [][]string{{"PING"}}},

		// Torn frames: the peer died mid-command.
		{name: "torn header", input: "*2\r\n$3\r\nGE", err: "torn"},
		{name: "torn payload", input: "*2\r\n$3\r\nGET\r\n$3\r\nfo", err: "torn"},
		{name: "torn bulk marker", input: "*2\r\n$3\r\nGET\r\n", err: "torn"},
		{name: "torn count line", input: "*2", err: "torn"},

		// Malformed frames: protocol errors.
		{name: "negative count", input: "*-1\r\n", err: "proto"},
		{name: "non-numeric count", input: "*abc\r\n", err: "proto"},
		{name: "non-numeric bulk len", input: "*1\r\n$x\r\nz\r\n", err: "proto"},
		{name: "negative bulk len", input: "*1\r\n$-1\r\n", err: "proto"},
		{name: "wrong marker", input: "*1\r\n:3\r\n", err: "proto"},
		{name: "payload missing crlf", input: "*1\r\n$3\r\nfooXX", err: "proto"},
		{name: "huge count digits", input: "*9999999999999\r\n", err: "proto"},

		// Oversized frames under tight limits.
		{name: "too many args", input: "*5\r\n", lim: tight, err: "proto"},
		{name: "bulk too big", input: "*1\r\n$17\r\n" + strings.Repeat("x", 17) + "\r\n",
			lim: tight, err: "proto"},
		{name: "inline too long", input: strings.Repeat("a", 64) + "\r\n", lim: tight, err: "proto"},
		{name: "bulk at limit ok", input: "*1\r\n$16\r\n" + strings.Repeat("x", 16) + "\r\n",
			lim: tight, want: [][]string{{strings.Repeat("x", 16)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := readAll(t, tc.input, tc.lim)
			switch tc.err {
			case "":
				if err != io.EOF {
					t.Fatalf("want clean EOF, got %v", err)
				}
			case "proto":
				var pe ProtocolError
				if !errors.As(err, &pe) {
					t.Fatalf("want ProtocolError, got %v", err)
				}
			case "torn":
				if err != io.ErrUnexpectedEOF && err != io.EOF {
					t.Fatalf("want torn-frame EOF, got %v", err)
				}
				if errors.As(err, new(ProtocolError)) {
					t.Fatalf("torn frame misclassified as protocol error: %v", err)
				}
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %d commands, want %d (%q)", len(got), len(tc.want), got)
			}
			for i, wc := range tc.want {
				if len(got[i]) != len(wc) {
					t.Fatalf("cmd %d: got %q want %q", i, got[i], wc)
				}
				for j, w := range wc {
					if string(got[i][j]) != w {
						t.Fatalf("cmd %d arg %d: got %q want %q", i, j, got[i][j], w)
					}
				}
			}
		})
	}
}

// TestReadCommandLongInline covers inline lines longer than the bufio
// buffer but inside the inline limit (the multi-fragment readLine path).
func TestReadCommandLongInline(t *testing.T) {
	arg := strings.Repeat("a", 40<<10) // > 16 KiB buffer, < 64 KiB limit
	cmds, err := readAll(t, "SET k "+arg+"\r\n", Limits{})
	if err != io.EOF {
		t.Fatalf("unexpected error: %v", err)
	}
	if len(cmds) != 1 || len(cmds[0]) != 3 || string(cmds[0][2]) != arg {
		t.Fatalf("long inline arg mangled")
	}
}

// TestReaderArgsSurviveNextRead pins that returned argument slices do
// not alias the read buffer.
func TestReaderArgsSurviveNextRead(t *testing.T) {
	input := "*2\r\n$3\r\nGET\r\n$3\r\nfoo\r\n*2\r\n$3\r\nGET\r\n$3\r\nbar\r\n"
	r := NewReader(strings.NewReader(input), Limits{})
	first, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadCommand(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first[1], []byte("foo")) {
		t.Fatalf("first command clobbered by second read: %q", first[1])
	}
}

// repeatReader replays one frame forever.
type repeatReader struct {
	frame []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.frame[r.off:])
		n += c
		r.off = (r.off + c) % len(r.frame)
	}
	return n, nil
}

// TestReaderAllocs bounds a SET with a 100-byte value to two
// allocations: the argument list and one chunk for every payload.
func TestReaderAllocs(t *testing.T) {
	set := EncodeCommand(nil, []byte("SET"), []byte("key:00001234"), bytes.Repeat([]byte("v"), 100))
	r := NewReader(&repeatReader{frame: set}, Limits{})
	n := testing.AllocsPerRun(1000, func() {
		if args, err := r.ReadCommand(); err != nil || len(args) != 3 {
			t.Fatalf("ReadCommand: %q, %v", args, err)
		}
	})
	if n > 2 {
		t.Fatalf("SET with a 100-byte value allocates %v times, want <= 2", n)
	}
}
