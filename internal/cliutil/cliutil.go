// Package cliutil centralizes flag conventions shared by the cxl*
// commands, so every tool registers the same names with the same
// defaults and help text and rejects the same invalid values. The
// sharded-execution flags live here: -shards picks how many OS threads
// execute a sharded simulation (output is byte-identical at any value)
// and -nodes sizes a simulated cluster. So do the -faults/-slo input
// loader and the artifact writer every output-file flag goes through.
package cliutil

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"cxlsim/internal/fault"
	"cxlsim/internal/slo"
)

const (
	shardsHelp = "parallel simulation shards (1 = single-threaded; output is byte-identical at any value)"
	nodesHelp  = "simulated cluster nodes (1 = the single-server methodology; >1 runs the sharded cluster)"

	respAddrHelp  = "serve the RESP (Redis) wire protocol on this TCP address (e.g. :6379); empty disables"
	respConnsHelp = "maximum simultaneous RESP connections"
	respFrameHelp = "largest RESP bulk argument accepted, bytes (oversized frames get a protocol-error reply)"
)

// RESP front-end flag defaults, shared by every command that registers
// the flags so help text and validation agree.
const (
	DefaultRESPMaxConns   = 256
	DefaultRESPFrameBytes = 4 << 20
)

// Shards registers the standard -shards flag on fs (default 1).
func Shards(fs *flag.FlagSet) *int { return fs.Int("shards", 1, shardsHelp) }

// Nodes registers the standard -nodes flag on fs (default 1).
func Nodes(fs *flag.FlagSet) *int { return fs.Int("nodes", 1, nodesHelp) }

// CheckShards validates a -shards value.
func CheckShards(n int) error {
	if n < 1 {
		return fmt.Errorf("-shards must be at least 1 (got %d)", n)
	}
	return nil
}

// CheckNodes validates a -nodes value.
func CheckNodes(n int) error {
	if n < 1 {
		return fmt.Errorf("-nodes must be at least 1 (got %d)", n)
	}
	return nil
}

// RESPFlags holds the registered RESP front-end flag values.
type RESPFlags struct {
	Addr       *string
	MaxConns   *int
	FrameBytes *int
}

// RESP registers the standard RESP front-end flags on fs.
func RESP(fs *flag.FlagSet) RESPFlags {
	return RESPFlags{
		Addr:       fs.String("resp", "", respAddrHelp),
		MaxConns:   fs.Int("resp-max-conns", DefaultRESPMaxConns, respConnsHelp),
		FrameBytes: fs.Int("resp-frame-bytes", DefaultRESPFrameBytes, respFrameHelp),
	}
}

// CheckRESP validates the RESP flag values. tuningSet reports whether
// -resp-max-conns or -resp-frame-bytes was set explicitly (via
// flag.Visit): tuning flags without -resp are a mistake worth rejecting
// rather than silently ignoring.
func CheckRESP(f RESPFlags, tuningSet bool) error {
	if *f.Addr == "" {
		if tuningSet {
			return fmt.Errorf("-resp-max-conns/-resp-frame-bytes need -resp <addr>")
		}
		return nil
	}
	if *f.MaxConns < 1 {
		return fmt.Errorf("-resp-max-conns must be at least 1 (got %d)", *f.MaxConns)
	}
	if *f.FrameBytes < 1 {
		return fmt.Errorf("-resp-frame-bytes must be positive (got %d)", *f.FrameBytes)
	}
	return nil
}

// RESPTuningSet reports whether any RESP tuning flag was explicitly set
// on fs (call after fs.Parse).
func RESPTuningSet(fs *flag.FlagSet) bool {
	set := false
	fs.Visit(func(fl *flag.Flag) {
		if fl.Name == "resp-max-conns" || fl.Name == "resp-frame-bytes" {
			set = true
		}
	})
	return set
}

// CheckInputs rejects a -faults or -slo flag set on fs to an empty path:
// an explicit empty file name is a mistake, not a request to skip the
// input. Call after fs.Parse.
func CheckInputs(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if (f.Name == "faults" || f.Name == "slo") && f.Value.String() == "" && err == nil {
			err = fmt.Errorf("-%s needs a file", f.Name)
		}
	})
	return err
}

// LoadInputs loads and validates the -faults schedule and the -slo spec;
// an empty path yields nil.
func LoadInputs(faultsPath, sloPath string) (*fault.Schedule, *slo.Spec, error) {
	var schedule *fault.Schedule
	var spec *slo.Spec
	var err error
	if faultsPath != "" {
		if schedule, err = fault.LoadSchedule(faultsPath); err != nil {
			return nil, nil, err
		}
	}
	if sloPath != "" {
		if spec, err = slo.Load(sloPath); err != nil {
			return nil, nil, err
		}
	}
	return schedule, spec, nil
}

// WriteFile writes one output artifact to path ("-" for stdout) through
// a buffer. Every failure — fn's error, the flush, and the close, where
// deferred write errors (ENOSPC, quota) appear on many filesystems — is
// returned, so no artifact is silently truncated.
func WriteFile(path string, fn func(io.Writer) error) error {
	f := os.Stdout
	if path != "-" {
		var err error
		if f, err = os.Create(path); err != nil {
			return err
		}
	}
	w := bufio.NewWriter(f)
	err := fn(w)
	if err == nil {
		err = w.Flush()
	}
	if path != "-" {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
