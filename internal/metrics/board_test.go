package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBoardCountersAndGauges(t *testing.T) {
	b := NewBoard()
	c := b.Counter("placements")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if b.Counter("placements") != c {
		t.Fatal("counter not interned by name")
	}
	g := b.Gauge("depth")
	g.Set(7)
	g.Dec()
	g.Dec()
	g.Dec()
	if g.Value() != 4 {
		t.Fatalf("gauge = %d", g.Value())
	}

	snap := b.Snapshot()
	if snap.Counters["placements"] != 5 || snap.Gauges["depth"] != 4 {
		t.Fatalf("snapshot: %+v", snap)
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	b := NewBoard()
	h := b.Hist("lat")
	for i := 0; i < 90; i++ {
		h.Observe(1 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.MaxNS != int64(100*time.Millisecond) {
		t.Fatalf("max = %d", s.MaxNS)
	}
	// Power-of-two buckets: estimates are within 2x of the true value.
	if s.P50NS < 0.5e6 || s.P50NS > 2e6 {
		t.Fatalf("p50 = %v ns", s.P50NS)
	}
	if s.P99NS < 50e6 || s.P99NS > float64(s.MaxNS) {
		t.Fatalf("p99 = %v ns", s.P99NS)
	}
	if s.P50NS > s.P90NS || s.P90NS > s.P99NS {
		t.Fatalf("quantiles not monotone: %+v", s)
	}
	if s.MeanNS < 1e6 || s.MeanNS > 100e6 {
		t.Fatalf("mean = %v ns", s.MeanNS)
	}
}

func TestHistZeroAndEmpty(t *testing.T) {
	var h LatencyHist
	if s := h.Snapshot(); s.Count != 0 || s.P99NS != 0 {
		t.Fatalf("empty snapshot: %+v", s)
	}
	h.Observe(0)
	if s := h.Snapshot(); s.Count != 1 || s.P50NS != 0 {
		t.Fatalf("zero-duration snapshot: %+v", s)
	}
}

func TestBoardTextDeterministic(t *testing.T) {
	b := NewBoard()
	b.Counter("zeta").Inc()
	b.Counter("alpha").Add(2)
	b.Gauge("mid").Set(1)
	b.Hist("lat").Observe(time.Millisecond)
	text := b.Snapshot().Text()
	if !strings.HasSuffix(text, "\n") {
		t.Fatal("exposition must end with newline")
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] >= lines[i] {
			t.Fatalf("lines not sorted: %q >= %q", lines[i-1], lines[i])
		}
	}
	for _, want := range []string{"alpha 2", "zeta 1", "mid 1", "lat_count 1", "lat_p99_ms"} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestBoardConcurrentUse(t *testing.T) {
	b := NewBoard()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b.Counter("c").Inc()
				b.Gauge("g").Inc()
				b.Hist("h").Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	snap := b.Snapshot()
	if snap.Counters["c"] != 8000 || snap.Gauges["g"] != 8000 {
		t.Fatalf("lost updates: %+v", snap)
	}
	if snap.Hists["h"].Count != 8000 {
		t.Fatalf("hist count = %d", snap.Hists["h"].Count)
	}
}
