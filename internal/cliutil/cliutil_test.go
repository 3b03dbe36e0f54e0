package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestShardsFlagDefaultsAndParse(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	s := Shards(fs)
	n := Nodes(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *s != 1 || *n != 1 {
		t.Fatalf("defaults = shards %d, nodes %d; want 1, 1", *s, *n)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	s, n = Shards(fs), Nodes(fs)
	if err := fs.Parse([]string{"-shards", "4", "-nodes", "8"}); err != nil {
		t.Fatal(err)
	}
	if *s != 4 || *n != 8 {
		t.Fatalf("parsed shards %d, nodes %d; want 4, 8", *s, *n)
	}
}

func TestShardsHelpMentionsDeterminism(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	Shards(fs)
	f := fs.Lookup("shards")
	if f == nil {
		t.Fatal("shards flag not registered")
	}
	if !strings.Contains(f.Usage, "byte-identical") {
		t.Fatalf("shards help %q does not state the determinism guarantee", f.Usage)
	}
}

func TestCheckRejectsInvalid(t *testing.T) {
	for _, bad := range []int{0, -1, -100} {
		if CheckShards(bad) == nil {
			t.Fatalf("CheckShards(%d) accepted", bad)
		}
		if CheckNodes(bad) == nil {
			t.Fatalf("CheckNodes(%d) accepted", bad)
		}
	}
	for _, ok := range []int{1, 2, 64} {
		if err := CheckShards(ok); err != nil {
			t.Fatalf("CheckShards(%d): %v", ok, err)
		}
		if err := CheckNodes(ok); err != nil {
			t.Fatalf("CheckNodes(%d): %v", ok, err)
		}
	}
}

// respParse registers the RESP flags on a fresh flag set, parses argv,
// and returns the flags plus whether a tuning flag was explicitly set.
func respParse(t *testing.T, argv ...string) (RESPFlags, bool) {
	t.Helper()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := RESP(fs)
	if err := fs.Parse(argv); err != nil {
		t.Fatalf("parse %q: %v", argv, err)
	}
	return f, RESPTuningSet(fs)
}

func TestCheckRESP(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		ok   bool
	}{
		{name: "disabled defaults", argv: nil, ok: true},
		{name: "addr with defaults", argv: []string{"-resp", ":6379"}, ok: true},
		{name: "addr with tuning", argv: []string{"-resp", ":6379", "-resp-max-conns", "8", "-resp-frame-bytes", "1024"}, ok: true},
		{name: "tuning without addr", argv: []string{"-resp-max-conns", "8"}, ok: false},
		{name: "frame without addr", argv: []string{"-resp-frame-bytes", "1024"}, ok: false},
		{name: "zero conns", argv: []string{"-resp", ":6379", "-resp-max-conns", "0"}, ok: false},
		{name: "negative conns", argv: []string{"-resp", ":6379", "-resp-max-conns", "-3"}, ok: false},
		{name: "zero frame", argv: []string{"-resp", ":6379", "-resp-frame-bytes", "0"}, ok: false},
		{name: "negative frame", argv: []string{"-resp", ":6379", "-resp-frame-bytes", "-1"}, ok: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, tuningSet := respParse(t, tc.argv...)
			err := CheckRESP(f, tuningSet)
			if tc.ok && err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("accepted, want error")
			}
		})
	}
}

// TestRESPDefaultsMatchServer pins the flag defaults to the server's
// own: explicitly-set-to-default and unset must behave identically.
func TestRESPDefaultsMatchServer(t *testing.T) {
	f, tuningSet := respParse(t)
	if tuningSet {
		t.Fatal("no tuning flags set, but RESPTuningSet reports true")
	}
	if *f.MaxConns != DefaultRESPMaxConns || *f.FrameBytes != DefaultRESPFrameBytes {
		t.Fatalf("defaults: conns=%d frame=%d", *f.MaxConns, *f.FrameBytes)
	}
	if _, tuningSet := respParse(t, "-resp-max-conns", "256"); !tuningSet {
		t.Fatal("explicit tuning flag not detected by RESPTuningSet")
	}
}

func TestNonNumericValueRejectedByParse(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	Shards(fs)
	if err := fs.Parse([]string{"-shards", "many"}); err == nil {
		t.Fatal("non-numeric -shards parsed without error")
	}
}

// TestCheckInputs: -faults/-slo set to an empty path are usage errors;
// unset or set to a file name they pass.
func TestCheckInputs(t *testing.T) {
	for _, tc := range []struct {
		argv []string
		ok   bool
	}{
		{nil, true},
		{[]string{"-faults", "f.json", "-slo", "s.json"}, true},
		{[]string{"-faults", ""}, false},
		{[]string{"-slo", ""}, false},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.String("faults", "", "")
		fs.String("slo", "", "")
		if err := fs.Parse(tc.argv); err != nil {
			t.Fatal(err)
		}
		if err := CheckInputs(fs); (err == nil) != tc.ok {
			t.Errorf("CheckInputs(%q) = %v, want ok=%v", tc.argv, err, tc.ok)
		}
	}
}

// TestLoadInputs loads the committed example schedule and SLO spec, and
// yields nil for empty paths and an error for a missing file.
func TestLoadInputs(t *testing.T) {
	schedule, spec, err := LoadInputs("", "")
	if err != nil || schedule != nil || spec != nil {
		t.Fatalf("empty paths: %v, %v, %v", schedule, spec, err)
	}
	schedule, spec, err = LoadInputs("../../examples/degrade-cxl.json", "../../examples/slo/kvstore.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(schedule.Faults) == 0 || spec.Name == "" {
		t.Fatalf("loaded %+v, %+v", schedule, spec)
	}
	missing := filepath.Join(t.TempDir(), "missing.json")
	if _, _, err := LoadInputs(missing, ""); err == nil {
		t.Fatal("missing schedule file did not error")
	}
	if _, _, err := LoadInputs("", missing); err == nil {
		t.Fatal("missing SLO spec did not error")
	}
}

// TestWriteFileSurfacesErrors pins the contract every output-file flag
// (-dump, -report, -trace, -metrics, -o) relies on: WriteFile must fail
// on an unwritable path, propagate fn's own error, and surface
// flush/close failures such as ENOSPC instead of leaving a silently
// truncated file behind.
func TestWriteFileSurfacesErrors(t *testing.T) {
	ok := filepath.Join(t.TempDir(), "out.txt")
	if err := WriteFile(ok, func(w io.Writer) error {
		_, err := io.WriteString(w, "payload")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(ok); err != nil || string(b) != "payload" {
		t.Fatalf("wrote %q, %v", b, err)
	}

	if err := WriteFile(filepath.Join(t.TempDir(), "no", "dir", "x"), func(io.Writer) error {
		return nil
	}); err == nil {
		t.Fatal("missing directory should error")
	}

	boom := errors.New("boom")
	err := WriteFile(filepath.Join(t.TempDir(), "y"), func(io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("fn error not propagated: %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "writing ") {
		t.Fatalf("error %v does not name the path", err)
	}

	// /dev/full accepts opens and small buffered writes but fails the
	// flush with ENOSPC — exactly the failure mode WriteFile exists to
	// catch. Skip quietly where the device is absent.
	if _, err := os.Stat("/dev/full"); err == nil {
		err := WriteFile("/dev/full", func(w io.Writer) error {
			for i := 0; i < 10000; i++ {
				if _, err := fmt.Fprintln(w, "fill the buffer so flush hits the device"); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			t.Fatal("WriteFile to /dev/full should surface ENOSPC")
		}
	}
}

// TestWriteFileStdout: "-" writes to stdout and leaves it open.
func TestWriteFileStdout(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = WriteFile("-", func(out io.Writer) error {
		_, err := io.WriteString(out, "to stdout")
		return err
	})
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("|still open")); err != nil {
		t.Fatalf("stdout closed by WriteFile: %v", err)
	}
	w.Close()
	b, err := io.ReadAll(r)
	if err != nil || string(b) != "to stdout|still open" {
		t.Fatalf("read %q, %v", b, err)
	}
}
