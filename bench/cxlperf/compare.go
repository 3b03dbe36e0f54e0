package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// compareMain implements `cxlperf compare A B`: per workload and metric
// of BENCHMARK.json, the median and quartiles of each side and, for
// end-to-end metrics, a verdict for B against A. A and B are result files
// or globs matching several (one file per run set). It exits 1 when an
// end-to-end metric reads worse.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: cxlperf compare A.json B.json")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "cxlperf: %v\n", err)
		return 1
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "cxlperf: %v\n", err)
		return 1
	}
	var sides [2][]*Results
	for i, pattern := range args {
		if sides[i], err = loadResults(pattern); err != nil {
			fmt.Fprintf(os.Stderr, "cxlperf: %v\n", err)
			return 1
		}
	}
	worse := false
	for _, wl := range spec.Workloads {
		for _, group := range []struct {
			pass    string
			metrics []specMetric
		}{{"timed", spec.EndToEnd}, {"traced", spec.PerLayer}} {
			for _, sm := range group.metrics {
				a := gather(sides[0], wl.Name, group.pass, sm.Name)
				b := gather(sides[1], wl.Name, group.pass, sm.Name)
				if len(a.values) == 0 || len(b.values) == 0 {
					continue
				}
				v := "-"
				if group.pass == "timed" {
					v = verdict(a, b, sm.Better, sm.Bound)
					worse = worse || v == "worse"
				}
				ma, mb := median(a.values), median(b.values)
				a1, a3 := quartiles(a.basis)
				b1, b3 := quartiles(b.basis)
				fmt.Fprintf(w, "%s %s %s A=%.6g [%.6g %.6g] runs=%d B=%.6g [%.6g %.6g] runs=%d delta=%+.2f%% %s\n",
					wl.Name, sm.Name, sm.Unit, ma, a1, a3, len(a.values), mb, b1, b3, len(b.values),
					change(ma, mb)*100, v)
			}
		}
	}
	if worse {
		return 1
	}
	return 0
}

func loadResults(pattern string) ([]*Results, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files match %s", pattern)
	}
	var rs []*Results
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r Results
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rs = append(rs, &r)
	}
	return rs, nil
}

// side is one side of a comparison for one workload and metric.
type side struct {
	values []float64 // one per run: the value the run reported
	// basis is what spread is measured over: the values when there are
	// at least three runs, else every sample of the runs.
	basis []float64
}

func gather(rs []*Results, workload, pass, metric string) side {
	var s side
	var all []float64
	for _, r := range rs {
		for _, run := range r.Runs {
			if m, ok := run.Metrics[metric]; ok && run.Workload == workload && run.Pass == pass {
				s.values = append(s.values, m.Value)
				all = append(all, m.Samples...)
			}
		}
	}
	s.basis = s.values
	if len(s.values) < 3 {
		s.basis = all
	}
	return s
}

func change(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}

// verdict judges side b against side a under a metric's bound:
//
//   - unresolved: either side's spread (quartile distance over median)
//     exceeds the bound, unless every B reading is better than every A
//     reading (better) or every one is worse (worse);
//   - worse or better: the medians of the runs' values differ by more
//     than the bound in that direction;
//   - same: otherwise.
func verdict(a, b side, better string, bound float64) string {
	sign := 1.0 // > 0 means B is worse
	if better == "higher" {
		sign = -1
	}
	spread := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		return (q3 - q1) / median(xs)
	}
	if spread(a.basis) > bound || spread(b.basis) > bound {
		// best and worst reading of a side, in the metric's direction.
		ends := func(xs []float64) (best, worst float64) {
			s := sorted(xs)
			if sign > 0 {
				return s[0], s[len(s)-1]
			}
			return s[len(s)-1], s[0]
		}
		bestA, worstA := ends(a.basis)
		bestB, worstB := ends(b.basis)
		switch {
		case sign*(worstB-bestA) < 0:
			return "better"
		case sign*(worstA-bestB) < 0:
			return "worse"
		}
		return "unresolved"
	}
	switch d := sign * change(median(a.values), median(b.values)); {
	case d > bound:
		return "worse"
	case d < -bound:
		return "better"
	}
	return "same"
}
