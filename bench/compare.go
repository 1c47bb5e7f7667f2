package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchDef is the part of BENCHMARK.json that -compare reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// sideStats summarises one side's runs of one workload x metric.
type sideStats struct {
	n           int
	med, q1, q3 float64
	vals        []float64
}

func statsOf(runs []run, workload, metricName string) sideStats {
	var s sideStats
	for _, r := range runs {
		if m, ok := r.Metrics[metricName]; r.Workload == workload && ok {
			s.vals = append(s.vals, m.Value)
		}
	}
	s.n = len(s.vals)
	s.med = median(s.vals)
	s.q1, s.q3 = quartiles(s.vals)
	return s
}

// spread is the interquartile range as a share of the median.
func (s sideStats) spread() float64 {
	if s.med == 0 {
		return math.Inf(1)
	}
	return (s.q3 - s.q1) / math.Abs(s.med)
}

// verdict compares the change b against the parent a for one metric:
// better, no-worse, regressed, or unresolved when either side's spread
// exceeds the bound (unless every run of b beats every run of a).
func verdict(a, b sideStats, lowerIsBetter bool, bound float64) (string, float64) {
	if a.n == 0 || b.n == 0 {
		return "missing", 0
	}
	worse := (b.med - a.med) / math.Abs(a.med) // share by which b is worse
	if !lowerIsBetter {
		worse = -worse
	}
	allBetter := true
	for _, x := range b.vals {
		for _, y := range a.vals {
			if (lowerIsBetter && x >= y) || (!lowerIsBetter && x <= y) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return "better", worse
	case a.spread() > bound || b.spread() > bound:
		return "unresolved", worse
	case worse > bound:
		return "regressed", worse
	case -worse > a.spread():
		return "better", worse
	}
	return "no-worse", worse
}

// runCompare prints one row per workload x end-to-end metric for two
// -repeat results files, a the parent and b the change, and fails when a
// metric regressed or a run was incorrect.
func runCompare(boundsPath, aPath, bPath string) int {
	var def benchDef
	var a, b struct {
		Runs []run `json:"runs"`
	}
	for _, f := range []struct {
		path string
		v    any
	}{{boundsPath, &def}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	code := 0
	for _, runs := range [][]run{a.Runs, b.Runs} {
		for _, r := range runs {
			if !r.Correct || r.Failed > 0 {
				fmt.Printf("incorrect run: %s seed %d (failed %d of %d)\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				code = 1
			}
		}
	}
	fmt.Printf("%-15s %-16s %-5s %28s %28s %8s %6s  %s\n", "workload", "metric", "unit",
		"a median [q1, q3]", "b median [q1, q3]", "worse", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range def.EndToEnd {
			sa, sb := statsOf(a.Runs, w.name(), m.Name), statsOf(b.Runs, w.name(), m.Name)
			v, worse := verdict(sa, sb, m.Better == "lower", m.Bound)
			if v == "regressed" || v == "missing" {
				code = 1
			}
			fmt.Printf("%-15s %-16s %-5s %28s %28s %+7.1f%% %5.0f%%  %s (spread a %.1f%%, b %.1f%%; n %d/%d)\n",
				w.name(), m.Name, m.Unit, side(sa), side(sb), 100*worse, 100*m.Bound, v,
				100*sa.spread(), 100*sb.spread(), sa.n, sb.n)
		}
	}
	return code
}

func side(s sideStats) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.med, s.q1, s.q3)
}
