// Command cxlfsck verifies (and optionally repairs) a durable spill
// tier directory — the on-disk log cxlserve -resp -spill-dir writes.
//
// Usage:
//
//	cxlfsck dir [dir...]           # read-only verification
//	cxlfsck -repair dir            # repairing recovery (truncate torn
//	                               # tails, quarantine corrupt ranges)
//	cxlfsck -json dir              # machine-readable report per dir
//
// The read-only mode scans and checksum-verifies every record of every
// segment (hint files are validated but never trusted in place of the
// scan) and never modifies the directory. -repair performs the same
// recovery a reopening store would: torn tails are truncated, corrupt
// ranges are copied into quarantine/ and skipped, and the rebuilt
// keydir is reported.
//
// Exit codes: 0 — every directory is clean (or was fully repaired);
// 1 — at least one directory has (or had) damage; 2 — usage or I/O
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"cxlsim/internal/spill"
)

func main() {
	repair := flag.Bool("repair", false, "repair instead of verify: truncate torn tails, quarantine corrupt ranges")
	jsonOut := flag.Bool("json", false, "print one JSON report per directory")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cxlfsck [-repair] [-json] dir [dir...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	damaged := false
	for _, dir := range flag.Args() {
		rep, err := check(dir, *repair)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlfsck: %s: %v\n", dir, err)
			os.Exit(2)
		}
		if !rep.Clean() {
			damaged = true
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(struct {
				Dir      string `json:"dir"`
				Repaired bool   `json:"repaired"`
				*spill.RecoveryReport
			}{dir, *repair && !rep.Clean(), rep}); err != nil {
				fmt.Fprintf(os.Stderr, "cxlfsck: %v\n", err)
				os.Exit(2)
			}
			continue
		}
		verdict := "clean"
		if !rep.Clean() {
			verdict = "DAMAGED"
			if *repair {
				verdict = "repaired"
			}
		}
		fmt.Printf("%s: %s: %s\n", dir, verdict, rep)
	}
	if damaged {
		os.Exit(1)
	}
}

// check runs one directory through read-only Fsck or repairing
// recovery.
func check(dir string, repair bool) (*spill.RecoveryReport, error) {
	if !repair {
		return spill.Fsck(dir)
	}
	d, rep, err := spill.Open(spill.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	if cerr := d.Close(); cerr != nil {
		return nil, cerr
	}
	return rep, nil
}
