package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Board is a concurrency-safe registry of named counters, gauges and
// latency histograms — the operational instrument set of the serving
// daemon (placements, rejections, queue depth, decision latency), snapshot
// at any moment and rendered as a text exposition at /metrics. Unlike the
// batch containers above, every instrument is lock-free on the hot path:
// recording a placement decision costs a handful of atomic adds.
type Board struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*LatencyHist
}

// NewBoard returns an empty board.
func NewBoard() *Board {
	return &Board{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*LatencyHist),
	}
}

// Counter returns the named counter, creating it on first use.
func (b *Board) Counter(name string) *Counter {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.counters[name]
	if c == nil {
		c = &Counter{}
		b.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (b *Board) Gauge(name string) *Gauge {
	b.mu.Lock()
	defer b.mu.Unlock()
	g := b.gauges[name]
	if g == nil {
		g = &Gauge{}
		b.gauges[name] = g
	}
	return g
}

// Hist returns the named latency histogram, creating it on first use.
func (b *Board) Hist(name string) *LatencyHist {
	b.mu.Lock()
	defer b.mu.Unlock()
	h := b.hists[name]
	if h == nil {
		h = &LatencyHist{}
		b.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous atomic level (e.g. queue depth).
type Gauge struct{ v atomic.Int64 }

// Set stores the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc raises the level by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec lowers the level by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// LatencyHist accumulates durations into power-of-two nanosecond buckets
// (bucket b holds [2^(b-1), 2^b) ns), giving lock-free recording and
// quantile estimates with at worst a 2x bucket resolution — ample for SLO
// accounting, where the question is "is p99 under 20ms", not its fifth
// digit. Exact count, sum and max ride alongside.
type LatencyHist struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
	buckets [64]atomic.Int64
}

// Observe records one duration.
func (h *LatencyHist) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		m := h.maxNS.Load()
		if ns <= m || h.maxNS.CompareAndSwap(m, ns) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(ns))].Add(1)
}

// HistSnapshot is a point-in-time view of a LatencyHist.
type HistSnapshot struct {
	Count               int64
	MeanNS              float64
	P50NS, P90NS, P99NS float64
	MaxNS               int64
}

// Quantile returns the estimated q-quantile in nanoseconds.
func (s bucketCounts) quantile(q float64, total, maxNS int64) float64 {
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for b, c := range s {
		cum += c
		if cum >= target {
			// Geometric midpoint of [2^(b-1), 2^b); bucket 0 holds only 0ns.
			if b == 0 {
				return 0
			}
			est := float64(uint64(1)<<uint(b)) * 0.75
			if est > float64(maxNS) {
				est = float64(maxNS)
			}
			return est
		}
	}
	return float64(maxNS)
}

type bucketCounts []int64

// Snapshot returns a consistent-enough view for reporting (buckets are read
// without a global lock; concurrent observations may straddle the read,
// which shifts a tail estimate by at most those in-flight samples).
func (h *LatencyHist) Snapshot() HistSnapshot {
	counts := make(bucketCounts, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	s := HistSnapshot{Count: total, MaxNS: h.maxNS.Load()}
	if total > 0 {
		s.MeanNS = float64(h.sumNS.Load()) / float64(total)
		s.P50NS = counts.quantile(0.50, total, s.MaxNS)
		s.P90NS = counts.quantile(0.90, total, s.MaxNS)
		s.P99NS = counts.quantile(0.99, total, s.MaxNS)
	}
	return s
}

// BoardSnapshot is a point-in-time view of every instrument on a Board.
type BoardSnapshot struct {
	Counters map[string]int64
	Gauges   map[string]int64
	Hists    map[string]HistSnapshot
}

// Snapshot captures every instrument.
func (b *Board) Snapshot() BoardSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := BoardSnapshot{
		Counters: make(map[string]int64, len(b.counters)),
		Gauges:   make(map[string]int64, len(b.gauges)),
		Hists:    make(map[string]HistSnapshot, len(b.hists)),
	}
	for name, c := range b.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range b.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range b.hists {
		s.Hists[name] = h.Snapshot()
	}
	return s
}

// Text renders the snapshot in a Prometheus-style exposition: one
// `name value` line per instrument, histograms expanded into _count, _mean,
// _p50/_p90/_p99 and _max milliseconds. Lines are sorted by name, so the
// output is deterministic for a given snapshot.
func (s BoardSnapshot) Text() string {
	var lines []string
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	ms := func(ns float64) float64 { return ns / 1e6 }
	for name, h := range s.Hists {
		lines = append(lines,
			fmt.Sprintf("%s_count %d", name, h.Count),
			fmt.Sprintf("%s_mean_ms %.6f", name, ms(h.MeanNS)),
			fmt.Sprintf("%s_p50_ms %.6f", name, ms(h.P50NS)),
			fmt.Sprintf("%s_p90_ms %.6f", name, ms(h.P90NS)),
			fmt.Sprintf("%s_p99_ms %.6f", name, ms(h.P99NS)),
			fmt.Sprintf("%s_max_ms %.6f", name, ms(float64(h.MaxNS))),
		)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}
