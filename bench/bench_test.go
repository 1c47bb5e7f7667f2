package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"geovmp"
	"geovmp/internal/experiment"
)

// tinyWorkloads are the four workloads shrunk to run in well under a
// second each, with the same code paths: streamed 5 s fine tables, epochs
// with faults and a move budget, one Proposed cell, and both daemon loops.
func tinyWorkloads() []workload {
	pw := paperWeek
	pw.scale, pw.horizon = 0.005, geovmp.HoursOf(12)
	df := dynamicFaulty
	df.horizon, df.seeds = geovmp.Days(1), 2
	lg := largeGlobal
	lg.scale, lg.horizon = 0.01, geovmp.HoursOf(8)
	so := serveOpen
	so.scale, so.horizon, so.rate = 0.01, geovmp.Days(1), 2000
	return []workload{pw, df, lg, so}
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name(), traced), func(t *testing.T) {
				cfg := runConfig{seed: 7, seconds: 50 * time.Millisecond, procs: 2}
				defs := endToEnd
				if traced {
					cfg.tr = newTracer()
					defs = perLayer
				}
				r := w.run(cfg)
				var out strings.Builder
				line, err := r.finish(&out, traced)
				if err != nil || !r.correct() {
					t.Fatalf("run failed (%v):\n%s", err, out.String())
				}
				var res result
				if err := json.Unmarshal([]byte(line), &res); err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(defs) {
					t.Fatalf("result %s", line)
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
				}
				if traced && len(cfg.tr.spans) == 0 {
					t.Error("traced run recorded no spans")
				}
			})
		}
	}
}

// TestProbePerturbsNothing runs an epoch scenario with bare policies, with
// probes, and with probes recording spans: the three exports must be
// byte-identical, and the proposed controller must have re-optimised at the
// epoch boundaries, which it does only when the probe forwards StartEpoch.
func TestProbePerturbsNothing(t *testing.T) {
	w := batchWorkload{id: "epochs", preset: "geo5dc-dynamic", scale: 0.01, horizon: geovmp.Days(1),
		fineStep: 300, migration: geovmp.MigrationBudget{MaxMovesPerEpoch: 20}, seeds: 2}
	spec := w.spec(7)
	cols, _, err := w.compile(spec, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := experiment.Run(context.Background(), w.grid(spec, cols, 2))
	if err != nil {
		t.Fatal(err)
	}
	bare, err := set.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*tracer{nil, newTracer()} {
		rs, err := w.round(spec, cols, nil, 2, tr)
		if err != nil {
			t.Fatal(err)
		}
		if string(rs.export) != string(bare) {
			t.Fatalf("export with probes (traced %v) differs from the bare one", tr != nil)
		}
		var tot batchTotals
		tot.add(rs)
		if tot.boundary == 0 {
			t.Fatalf("no epoch-boundary embedding (traced %v): StartEpoch did not reach the controller", tr != nil)
		}
	}
}

func TestPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n, p   int
		want   float64
		report bool
	}{
		{1000, 99, 990, true}, // exactly 10 samples above
		{999, 99, 990, false}, // 9 above
		{20, 50, 10, true},
		{19, 50, 10, false},
		{4, 100, 4, false},
		{1, 50, 1, false},
	} {
		got, ok := percentile(ramp(c.n), c.p)
		if got != c.want || ok != c.report {
			t.Errorf("p%d of 1..%d = %v, %v; want %v, %v", c.p, c.n, got, ok, c.want, c.report)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestOpenLoopLateness drives the open loop with an op slower than the
// schedule: one sender needs 5 ms per op while one is due every 1 ms, so
// it falls 4 ms further behind per op, and every op's latency — counted
// from its due time — carries that wait.
func TestOpenLoopLateness(t *testing.T) {
	const n, rate, slow = 20, 1000.0, 5 * time.Millisecond
	ts := openLoop(n, 1, rate, func(int) { time.Sleep(slow) })
	for k := 1; k < n; k++ {
		if step := ts[k].due.Sub(ts[k-1].due); step != time.Millisecond {
			t.Fatalf("op %d due %v after op %d, want 1ms", k, step, k-1)
		}
		if ts[k].sent.Before(ts[k-1].done) {
			t.Fatalf("op %d sent before op %d returned", k, k-1)
		}
		late, latency := ts[k].sent.Sub(ts[k].due), ts[k].done.Sub(ts[k].due)
		if late < time.Duration(k)*(slow-time.Millisecond) {
			t.Fatalf("op %d sent %v late, want at least %v", k, late, time.Duration(k)*(slow-time.Millisecond))
		}
		if latency < late+slow {
			t.Fatalf("op %d latency %v does not include its %v wait", k, latency, late)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalog, the workload
// list and BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	type defMetric struct{ Name, Unit string }
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []defMetric `json:"end_to_end"`
		PerLayer  []defMetric `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &def); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name())
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, bench runs %v", names, want)
	}
	for _, c := range []struct {
		got  []defMetric
		want []metricDef
	}{{def.EndToEnd, endToEnd}, {def.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the catalog %d", len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("BENCHMARK.json metric %d is %s (%s), the catalog has %s (%s)", i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}

// TestExpectedExports checks that expected.json pins every batch workload.
// With GEOVMP_UPDATE_GOLDEN=1 it recomputes each default-seed export at
// full size with unwrapped policies and rewrites the file.
func TestExpectedExports(t *testing.T) {
	var want map[string]string
	if err := json.Unmarshal(expectedJSON, &want); err != nil {
		t.Fatal(err)
	}
	update := os.Getenv("GEOVMP_UPDATE_GOLDEN") != ""
	got := map[string]string{}
	for _, w := range workloads {
		bw, ok := w.(batchWorkload)
		if !ok {
			continue
		}
		if !update {
			if want[bw.id] == "" {
				t.Errorf("expected.json has no export hash for %s", bw.id)
			}
			continue
		}
		spec := bw.spec(defaultSeed)
		cols, _, err := bw.compile(spec, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		set, err := experiment.Run(context.Background(), bw.grid(spec, cols, 2))
		if err != nil {
			t.Fatal(err)
		}
		b, err := set.JSON()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		got[bw.id] = hex.EncodeToString(sum[:])
	}
	if !update {
		return
	}
	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("expected.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
