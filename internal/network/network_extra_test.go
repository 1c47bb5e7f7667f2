package network

import (
	"math"
	"testing"

	"geovmp/internal/rng"
	"geovmp/internal/units"
)

func TestDestLatencyIncludesIntraDiagonal(t *testing.T) {
	s := newState(t)
	n := s.topo.N
	vol := make([][]units.DataSize, n)
	for i := range vol {
		vol[i] = make([]units.DataSize, n)
	}
	// Pure intra-DC traffic at DC 1: latency = vol / IntraBW.
	vol[1][1] = 100 * units.Gigabyte
	got := s.DestLatency(1, vol)
	want := s.topo.IntraBW[1].TransferSeconds(100 * units.Gigabyte)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("intra-only latency = %v, want %v", got, want)
	}
	// The fabric is 10x the storage uplink: the same volume crossing DCs
	// must cost (much) more.
	vol[1][1] = 0
	vol[0][1] = 100 * units.Gigabyte
	cross := s.DestLatency(1, vol)
	if cross <= want {
		t.Fatalf("cross-DC %v not above intra %v", cross, want)
	}
}

func TestDestLatencyIntraFallsBackToLocalBW(t *testing.T) {
	topo := PaperTopology()
	topo.IntraBW = nil // legacy topology without a fabric spec
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	s := NewState(topo, rng.New(1))
	vol := [][]units.DataSize{{0, 0, 0}, {0, 10 * units.Gigabyte, 0}, {0, 0, 0}}
	got := s.DestLatency(1, vol)
	want := topo.LocalBW[1].TransferSeconds(10 * units.Gigabyte)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("fallback latency = %v, want %v", got, want)
	}
}

func TestValidateIntraBW(t *testing.T) {
	topo := PaperTopology()
	topo.IntraBW = topo.IntraBW[:2]
	if err := topo.Validate(); err == nil {
		t.Fatal("wrong IntraBW length accepted")
	}
	topo = PaperTopology()
	topo.IntraBW[1] = 0
	if err := topo.Validate(); err == nil {
		t.Fatal("zero intra bandwidth accepted")
	}
}

func TestMigrationTimeSymmetricDistances(t *testing.T) {
	s := newState(t)
	// Equal image both directions: only BER conditions differ, so times
	// should be within an order of magnitude.
	a := s.MigrationTime(0, 2, 4*units.Gigabyte)
	b := s.MigrationTime(2, 0, 4*units.Gigabyte)
	if a <= 0 || b <= 0 {
		t.Fatal("non-positive migration time")
	}
	if a > 10*b || b > 10*a {
		t.Fatalf("direction asymmetry implausible: %v vs %v", a, b)
	}
}

func TestStepBERWithinDistributionSupport(t *testing.T) {
	s := newState(t)
	rates := map[float64]bool{}
	for _, r := range s.topo.BER.Rates {
		rates[r] = true
	}
	for step := 0; step < 500; step++ {
		ber := s.stepBER(0, 1, step)
		if !rates[ber] {
			t.Fatalf("step BER %v outside the distribution support", ber)
		}
	}
}

func TestDataLatencyIndependentAcrossLinks(t *testing.T) {
	// Different links see different base BERs; with a volume large enough
	// the latency difference shows when the draws differ.
	s := newState(t)
	foundDiff := false
	for k := 0; k < 20 && !foundDiff; k++ {
		s.Reroll()
		if s.berBase[0][1] != s.berBase[1][2] {
			foundDiff = true
		}
	}
	if !foundDiff {
		t.Skip("all rerolls drew equal BERs (improbable)")
	}
}
