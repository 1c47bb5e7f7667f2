package network

import (
	"math"
	"testing"
	"testing/quick"

	"geovmp/internal/rng"
	"geovmp/internal/units"
)

func newState(t *testing.T) *State {
	t.Helper()
	topo := PaperTopology()
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	return NewState(topo, rng.New(42))
}

func TestPaperTopologyValid(t *testing.T) {
	topo := PaperTopology()
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.N != 3 {
		t.Fatalf("N = %d, want 3", topo.N)
	}
	if topo.Backbone != 100*units.GigabitPerSecond {
		t.Fatalf("backbone = %v", topo.Backbone)
	}
}

func TestBERDistribution(t *testing.T) {
	d := PaperBER()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	src := rng.New(7)
	counts := map[float64]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[d.Draw(src)]++
	}
	if got := float64(counts[1e-6]) / n; math.Abs(got-0.54) > 0.01 {
		t.Fatalf("P(1e-6) = %v, want ~0.54", got)
	}
	if got := float64(counts[1e-2]) / n; math.Abs(got-0.01) > 0.005 {
		t.Fatalf("P(1e-2) = %v, want ~0.01", got)
	}
}

func TestLocalLatency(t *testing.T) {
	topo := PaperTopology()
	// 10 GB over 10 Gb/s = 8 s.
	got := topo.LocalLatency(0, 10*units.Gigabyte)
	if math.Abs(got-8) > 1e-9 {
		t.Fatalf("local latency = %v, want 8", got)
	}
	if topo.LocalLatency(1, 0) != 0 {
		t.Fatal("zero volume should have zero local latency")
	}
}

func TestPropagationDelay(t *testing.T) {
	topo := PaperTopology()
	// Lisbon-Helsinki: 3360 km / 2e8 m/s = 16.8 ms.
	got := topo.PropagationDelay(0, 2)
	if math.Abs(got-0.0168) > 1e-6 {
		t.Fatalf("propagation = %v, want 0.0168", got)
	}
	if topo.PropagationDelay(1, 1) != 0 {
		t.Fatal("self propagation should be 0")
	}
}

func TestDataLatencySmallVolume(t *testing.T) {
	s := newState(t)
	// 1 MB over ~100 Gb/s: well under one second.
	got := s.DataLatency(0, 1, units.Megabyte)
	if got <= 0 || got > 0.01 {
		t.Fatalf("1 MB data latency = %v, want ~1e-4", got)
	}
}

func TestDataLatencyZeroVolume(t *testing.T) {
	s := newState(t)
	if got := s.DataLatency(0, 1, 0); got != 0 {
		t.Fatalf("zero volume latency = %v", got)
	}
}

func TestDataLatencyLargeVolumeFragmented(t *testing.T) {
	s := newState(t)
	// 100 GB over 100 Gb/s needs ~8 s of unit steps.
	got := s.DataLatency(0, 1, 100*units.Gigabyte)
	if got < 7.9 || got > 12 {
		t.Fatalf("100 GB latency = %v, want ~8s (+BER overhead)", got)
	}
}

func TestDataLatencyMonotoneInVolume(t *testing.T) {
	s := newState(t)
	f := func(a, b float64) bool {
		va := units.DataSize(math.Abs(math.Mod(a, 1e11)))
		vb := units.DataSize(math.Abs(math.Mod(b, 1e11)))
		if va > vb {
			va, vb = vb, va
		}
		return s.DataLatency(0, 2, va) <= s.DataLatency(0, 2, vb)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDataLatencyVeryLargeVolumeFinite(t *testing.T) {
	s := newState(t)
	got := s.DataLatency(0, 1, 10*units.Terabyte)
	want := 10e12 / (100e9 / 8) // ~800 s ignoring BER
	if got < want || got > want*1.2 {
		t.Fatalf("10 TB latency = %v, want ~%v", got, want)
	}
}

func TestGlobalLatencyIncludesPropagation(t *testing.T) {
	s := newState(t)
	tiny := s.GlobalLatency(0, 2, 1) // one byte: essentially pure propagation
	if tiny < s.topo.PropagationDelay(0, 2) {
		t.Fatalf("global latency %v below propagation floor", tiny)
	}
	if s.GlobalLatency(1, 1, units.Gigabyte) != 0 {
		t.Fatal("self link should be free")
	}
}

func TestDestLatencyEq1(t *testing.T) {
	s := newState(t)
	n := s.topo.N
	vol := make([][]units.DataSize, n)
	for i := range vol {
		vol[i] = make([]units.DataSize, n)
	}
	vol[0][2] = 10 * units.Gigabyte
	vol[1][2] = 1 * units.Gigabyte
	lt := s.DestLatency(2, vol)

	// Recompute by hand: max over sources of (local + global) + dest local.
	src0 := s.topo.LocalLatency(0, vol[0][2]) + s.GlobalLatency(0, 2, vol[0][2])
	src1 := s.topo.LocalLatency(1, vol[1][2]) + s.GlobalLatency(1, 2, vol[1][2])
	worst := math.Max(src0, src1)
	dest := s.topo.LocalLatency(2, vol[0][2]+vol[1][2])
	want := worst + dest
	if math.Abs(lt-want) > 1e-9 {
		t.Fatalf("DestLatency = %v, want %v", lt, want)
	}
	if src0 <= src1 {
		t.Fatal("test setup: source 0 should dominate")
	}
}

func TestDestLatencyNoTraffic(t *testing.T) {
	s := newState(t)
	vol := [][]units.DataSize{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}
	if got := s.DestLatency(1, vol); got != 0 {
		t.Fatalf("idle destination latency = %v", got)
	}
}

func TestMigrationTime(t *testing.T) {
	s := newState(t)
	// 4 GB VM image Lisbon -> Zurich: two local hops at 10 Gb/s (3.2 s each)
	// plus backbone (~0.32 s) plus propagation.
	got := s.MigrationTime(0, 1, 4*units.Gigabyte)
	if got < 6.7 || got > 9 {
		t.Fatalf("migration time = %v, want ~6.7-7.2 s", got)
	}
	if s.MigrationTime(2, 2, 4*units.Gigabyte) != 0 {
		t.Fatal("intra-DC migration should be free in the network model")
	}
}

func TestRerollChangesConditions(t *testing.T) {
	s := newState(t)
	seen := map[float64]bool{}
	for k := 0; k < 50; k++ {
		seen[s.berBase[0][1]] = true
		s.Reroll()
	}
	if len(seen) < 2 {
		t.Fatal("reroll never changed the BER draw in 50 slots")
	}
}

func TestHigherBERSlowsTransfer(t *testing.T) {
	topo := PaperTopology()
	// Force all-good vs all-bad distributions.
	good := *topo
	good.BER = BERDistribution{Rates: []float64{1e-6}, Probs: []float64{1}}
	bad := *topo
	bad.BER = BERDistribution{Rates: []float64{0.5}, Probs: []float64{1}}
	sg := NewState(&good, rng.New(1))
	sb := NewState(&bad, rng.New(1))
	vol := 50 * units.Gigabyte
	lg := sg.DataLatency(0, 1, vol)
	lb := sb.DataLatency(0, 1, vol)
	if lb <= lg {
		t.Fatalf("bad link %v not slower than good link %v", lb, lg)
	}
}

func TestValidateCatchesBadTopologies(t *testing.T) {
	base := PaperTopology()
	tests := []struct {
		name   string
		mutate func(*Topology)
	}{
		{"zero N", func(tp *Topology) { tp.N = 0 }},
		{"self distance", func(tp *Topology) { tp.DistanceM[1][1] = 5 }},
		{"asymmetric", func(tp *Topology) { tp.DistanceM[0][1] = 1; tp.DistanceM[1][0] = 2 }},
		{"negative distance", func(tp *Topology) { tp.DistanceM[0][1] = -1; tp.DistanceM[1][0] = -1 }},
		{"zero backbone", func(tp *Topology) { tp.Backbone = 0 }},
		{"zero local", func(tp *Topology) { tp.LocalBW[0] = 0 }},
		{"bad BER", func(tp *Topology) { tp.BER.Rates = nil }},
	}
	for _, tt := range tests {
		topo := PaperTopology()
		_ = base
		tt.mutate(topo)
		if err := topo.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", tt.name)
		}
	}
}

func TestDataLatencyDeterministic(t *testing.T) {
	a := NewState(PaperTopology(), rng.New(9)).DataLatency(0, 1, 20*units.Gigabyte)
	b := NewState(PaperTopology(), rng.New(9)).DataLatency(0, 1, 20*units.Gigabyte)
	if a != b {
		t.Fatal("data latency not deterministic for equal seeds")
	}
}
