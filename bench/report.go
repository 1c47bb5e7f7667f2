package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric of BENCHMARK.json with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports
// every one of them; the README says what each means per workload.
// Decision latency is printed by every run but is not among them: the
// open-loop place median (about 0.07 ms) moves by more than any allowed
// bound between runs on a shared 2-core box.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"maxrss_mb", "MiB"},
}

// perLayer are the metrics of a traced run. Batch-layer values are per
// measured round, so counts repeat exactly between runs of one seed. A
// workload that never enters a layer reports its metrics as 0, and a
// percentile with fewer than minBeyond samples above it reads 0 next to
// its sample count.
var perLayer = []metricDef{
	{"trace.compile_s", "s"},
	{"trace.stream_pass_s", "s"},
	{"trace.fine_table_mb", "MiB"},
	{"sim.self_s", "s"},
	{"sim.vm_slots", "count"},
	{"embed.run_s", "s"},
	{"embed.boundary_s", "s"},
	{"embed.iters", "count"},
	{"core.place_s", "s"},
	{"core.place_ms_p50", "ms"},
	{"core.place_ms_p99", "ms"},
	{"core.place_n", "count"},
	{"core.self_s", "s"},
	{"policy.place_s", "s"},
	{"alloc.allocate_s", "s"},
	{"alloc.overflowed", "count"},
	{"alloc.active_servers_mean", "count"},
	{"migrate.moves", "count"},
	{"migrate.rejected", "count"},
	{"migrate.accept_ratio", "ratio"},
	{"fault.evacuations", "count"},
	{"experiment.cells", "count"},
	{"experiment.cell_s_p50", "s"},
	{"experiment.cell_s_max", "s"},
	{"experiment.idle_s", "s"},
	{"serve.place_ms_p50", "ms"},
	{"serve.place_ms_p99", "ms"},
	{"serve.observe_ms_p50", "ms"},
	{"serve.observe_ms_max", "ms"},
	{"serve.observe_n", "count"},
	{"serve.depart_ms_p99", "ms"},
	{"serve.depart_n", "count"},
	{"serve.reconciles", "count"},
	{"serve.overflows", "count"},
	{"serve.rejections", "count"},
	{"loadgen.late_ms_p50", "ms"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.place_n", "count"},
	{"bench.trace_overhead_pct", "%"},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: metric " + name + " is not in the catalog")
}

// metric and result are the JSON line a single-workload run ends with.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics, notes and checks and prints them.
type report struct {
	values    map[string]float64
	lines     []string
	failures  int
	attempted int
	failed    int
}

func newReport() *report { return &report{values: map[string]float64{}} }

// set records a catalog metric.
func (r *report) set(name string, v float64) {
	r.values[name] = v
	r.lines = append(r.lines, fmt.Sprintf("  %-28s %14.6g %s", name, v, unitOf(name)))
}

// note adds an informational line, such as a sample count.
func (r *report) note(format string, a ...any) {
	r.lines = append(r.lines, "  "+fmt.Sprintf(format, a...))
}

// check records one correctness check: PASS when err is nil.
func (r *report) check(name string, err error) {
	if err == nil {
		r.lines = append(r.lines, "  check PASS "+name)
		return
	}
	r.failures++
	r.lines = append(r.lines, fmt.Sprintf("  check FAIL %s: %v", name, err))
}

func (r *report) correct() bool { return r.failures == 0 }

// setPct records the p-th percentile of samples under name, or 0 when
// fewer than minBeyond samples lie above it, and notes the sample count.
func (r *report) setPct(name string, samples []float64, p int) {
	v, ok := percentile(slices.Sorted(slices.Values(samples)), p)
	if !ok {
		v = 0
	}
	r.set(name, v)
	r.note("  %s", pctCount(len(samples), p, ok))
}

// notePct prints the p-th percentile of ms samples with its sample count,
// without recording a metric.
func (r *report) notePct(label string, samples []float64, p int) {
	v, ok := percentile(slices.Sorted(slices.Values(samples)), p)
	if ok {
		r.note("%-28s %14.6g ms  %s", label, v, pctCount(len(samples), p, ok))
		return
	}
	r.note("%-28s %14s     %s", label, "-", pctCount(len(samples), p, ok))
}

func pctCount(n, p int, ok bool) string {
	if ok {
		return fmt.Sprintf("(p%d of n=%d)", p, n)
	}
	return fmt.Sprintf("(p%d withheld: n=%d leaves fewer than %d samples above it)", p, n, minBeyond)
}

// finish writes the human-readable lines to out and returns the result
// line with the end-to-end metrics, or with the per-layer ones for a
// traced run.
func (r *report) finish(out io.Writer, traced bool) (string, error) {
	for _, l := range r.lines {
		fmt.Fprintln(out, l)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !traced {
			return "", fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is not finite", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return "", fmt.Errorf("no operation was attempted")
	}
	b, err := json.Marshal(res)
	return string(b), err
}

// setUp runs build at least five times and for at least minTime, and
// returns the median duration in seconds: a cheap set-up is sampled often
// enough for a steady median, a costly one is not repeated for long. A
// collection after each build keeps the discarded builds out of the peak
// RSS.
func setUp(minTime time.Duration, build func() error) (float64, error) {
	var times []float64
	start := time.Now()
	for len(times) < 5 || time.Since(start) < minTime {
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		runtime.GC()
	}
	return median(times), nil
}

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 needs 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted samples and
// whether at least minBeyond samples lie above it.
func percentile(sorted []float64, p int) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := (p*n + 99) / 100 // ceil(p*n/100), 1-based
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the same exclusive
// method as Python's statistics.quantiles(values, n=4).
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// setMaxRSS records the process's peak resident set size. Linux reports
// ru_maxrss in KiB.
func setMaxRSS(r *report) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		r.check("getrusage", err)
		return
	}
	r.set("maxrss_mb", float64(ru.Maxrss)/1024)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// errList joins check failures into one error, or nil.
func errList(errs []string) error {
	if len(errs) == 0 {
		return nil
	}
	const show = 3
	more := ""
	if len(errs) > show {
		more = fmt.Sprintf(" (and %d more)", len(errs)-show)
		errs = errs[:show]
	}
	return fmt.Errorf("%s%s", strings.Join(errs, "; "), more)
}
