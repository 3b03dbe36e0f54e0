package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childEnv carries a job (JSON) to a fresh cxlperf process: work whose
// cost includes a cold process, or whose peak memory must be its own,
// runs in one.
const childEnv = "CXLPERF_CHILD"

type childJob struct {
	Kind    string  `json:"kind"` // "ready", "paper-figures" or "ycsb-static"
	Seed    int64   `json:"seed"`
	Quick   bool    `json:"quick"`
	Seconds float64 `json:"seconds"`
}

type childOut struct {
	Samples samples             `json:"samples"`
	Digests []map[string]string `json:"digests"` // one set per repetition
	Err     string              `json:"error,omitempty"`
}

// runChild is a child process's main: it prints "ready" as soon as the
// runtime and every package are initialized, runs the job, and prints
// its result as JSON.
func runChild(spec string) int {
	fmt.Println("ready")
	var job childJob
	if err := json.Unmarshal([]byte(spec), &job); err != nil {
		fmt.Fprintf(os.Stderr, "cxlperf child: %v\n", err)
		return 2
	}
	out := childOut{Samples: samples{}}
	var err error
	switch job.Kind {
	case "ready":
		return 0
	case "paper-figures":
		err = figuresChild(job, &out)
	case "ycsb-static":
		err = ycsbChild(job, &out)
	default:
		err = fmt.Errorf("unknown child job %q", job.Kind)
	}
	if err == nil {
		var mb float64
		if mb, err = peakRSS("self"); err == nil {
			out.Samples.add("peak_rss_mb", mb)
		}
	}
	if err != nil {
		out.Err = err.Error()
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "cxlperf child: %v\n", err)
		return 1
	}
	return 0
}

// spawn runs job in a fresh process and waits for it. setup is the time
// from exec until the child's ready line, in seconds.
func spawn(job childJob) (out childOut, setup float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return out, 0, err
	}
	spec, err := json.Marshal(job)
	if err != nil {
		return out, 0, err
	}
	cmd := exec.Command(exe)
	cmd.SysProcAttr = dieWithParent()
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return out, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return out, 0, err
	}
	br := bufio.NewReader(stdout)
	line, rerr := br.ReadString('\n')
	setup = time.Since(t0).Seconds()
	rest, _ := io.ReadAll(br)
	if werr := cmd.Wait(); werr != nil {
		return out, 0, fmt.Errorf("%s child: %w", job.Kind, werr)
	}
	if rerr != nil || line != "ready\n" {
		return out, 0, fmt.Errorf("%s child: no ready line (got %q)", job.Kind, line)
	}
	if job.Kind != "ready" {
		if err := json.Unmarshal(rest, &out); err != nil {
			return out, 0, fmt.Errorf("%s child output: %w", job.Kind, err)
		}
		if out.Err != "" {
			return out, 0, fmt.Errorf("%s child: %s", job.Kind, out.Err)
		}
	}
	return out, setup, nil
}

// dieWithParent makes a child process exit if cxlperf dies first.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// peakRSS reads a process's peak resident set (VmHWM), in MB. The
// rusage of a waited-for child is no substitute: Go starts children
// with vfork, so their ru_maxrss includes the parent's own peak.
func peakRSS(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
