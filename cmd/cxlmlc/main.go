// Command cxlmlc is the simulation analogue of Intel's Memory Latency
// Checker: it sweeps injection rates against the simulated memory paths
// and emits (offered, achieved, latency) curves as CSV — the raw data
// behind Figures 3 and 4.
//
// Usage:
//
//	cxlmlc                     # all four paths, all five mixes
//	cxlmlc -path CXL -mix 2:1  # one curve
//	cxlmlc -pattern random
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cxlsim/internal/memsim"
	"cxlsim/internal/mlc"
	"cxlsim/internal/topology"
)

func main() {
	pathFlag := flag.String("path", "all", "path: MMEM, MMEM-r, CXL, CXL-r, or all")
	mixFlag := flag.String("mix", "all", "read:write mix: 1:0, 2:1, 1:1, 1:3, 0:1, or all")
	pattern := flag.String("pattern", "sequential", "access pattern: sequential or random")
	steps := flag.Int("steps", 40, "sweep points per curve")
	flag.Parse()
	if *steps < 2 {
		fmt.Fprintf(os.Stderr, "cxlmlc: -steps must be at least 2, got %d\n", *steps)
		os.Exit(2)
	}

	m := topology.TestbedSNC()
	paths := map[string]*memsim.Path{
		"MMEM":   m.PathFrom(0, m.DRAMNodes(0)[0]),
		"MMEM-r": m.PathFrom(1, m.DRAMNodes(0)[0]),
		"CXL":    m.PathFrom(0, m.CXLNodes()[0]),
		"CXL-r":  m.PathFrom(1, m.CXLNodes()[0]),
	}
	order := []string{"MMEM", "MMEM-r", "CXL", "CXL-r"}

	var selPaths []string
	if *pathFlag == "all" {
		selPaths = order
	} else if _, ok := paths[*pathFlag]; ok {
		selPaths = []string{*pathFlag}
	} else {
		fmt.Fprintf(os.Stderr, "cxlmlc: unknown path %q (want %s)\n", *pathFlag, strings.Join(order, ", "))
		os.Exit(2)
	}

	mixes := map[string]memsim.Mix{}
	var mixOrder []string
	for _, mx := range memsim.StandardMixes() {
		mixes[mx.Label()] = mx
		mixOrder = append(mixOrder, mx.Label())
	}
	var selMixes []string
	if *mixFlag == "all" {
		selMixes = mixOrder
	} else if _, ok := mixes[*mixFlag]; ok {
		selMixes = []string{*mixFlag}
	} else {
		fmt.Fprintf(os.Stderr, "cxlmlc: unknown mix %q (want %s)\n", *mixFlag, strings.Join(mixOrder, ", "))
		os.Exit(2)
	}

	pat := memsim.Sequential
	switch *pattern {
	case "sequential":
	case "random":
		pat = memsim.Random
	default:
		fmt.Fprintln(os.Stderr, "cxlmlc: pattern must be sequential or random")
		os.Exit(2)
	}

	opts := mlc.DefaultOptions()
	opts.Steps = *steps

	fmt.Println("path,mix,pattern,offered_gbps,achieved_gbps,latency_ns")
	for _, pn := range selPaths {
		for _, mn := range selMixes {
			mix := mixes[mn].WithPattern(pat)
			curve := mlc.LoadedLatency(paths[pn], mix, opts)
			for _, pt := range curve.Points {
				fmt.Printf("%s,%s,%s,%.3f,%.3f,%.1f\n",
					pn, mn, pat, pt.OfferedGBps, pt.AchievedGBps, pt.LatencyNs)
			}
		}
	}
}
