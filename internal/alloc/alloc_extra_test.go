package alloc

import (
	"testing"

	"geovmp/internal/correlation"
	"geovmp/internal/power"
)

// TestShortProfilesHandled checks that a profile shorter than the set's
// sample count never reaches the packer: the set refuses it at Add.
func TestShortProfilesHandled(t *testing.T) {
	ps := correlation.NewProfileSet(8)
	for _, row := range [][]float64{{3, 3}, {2, 2, 2, 2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Add of a %d-sample row to an 8-sample set did not panic", len(row))
				}
			}()
			ps.Add(0, row)
		}()
	}
	if ps.Has(0) {
		t.Fatal("rejected row registered")
	}
}

func TestSingleVMMinimalFrequency(t *testing.T) {
	m := power.E5410()
	ps := correlation.NewProfileSet(4)
	ps.Add(0, []float64{0.1, 0.1, 0.1, 0.1})
	res := CorrelationAware([]int{0}, ps, m, 4)
	if res.Servers[0].Level != 0 {
		t.Fatalf("tiny VM should run at the lowest level, got %d", res.Servers[0].Level)
	}
}

func TestPackingOrderIsPeakDescending(t *testing.T) {
	// The first opened server must host the largest-peak VM (FFD order).
	m := power.E5410()
	ps := correlation.NewProfileSet(2)
	ps.Add(0, []float64{1, 1})
	ps.Add(1, []float64{7, 7})
	ps.Add(2, []float64{3, 3})
	res := PlainFFD([]int{0, 1, 2}, ps, m, 10)
	if res.Servers[0].VMs[0] != 1 {
		t.Fatalf("first placement = %d, want the 7-core VM", res.Servers[0].VMs[0])
	}
}

func TestCorrAwareDVFSUsesCombinedPeak(t *testing.T) {
	// Two anti-correlated 4-core VMs: combined peak 5 < 2.0 GHz capacity
	// (6.96), so one server at the LOW level suffices — stationary sizing
	// would have demanded the high level (sum of peaks 8).
	m := power.E5410()
	ps := correlation.NewProfileSet(4)
	ps.Add(0, []float64{4, 1, 4, 1})
	ps.Add(1, []float64{1, 4, 1, 4})
	res := CorrelationAware([]int{0, 1}, ps, m, 4)
	if res.Active != 1 {
		t.Fatalf("servers = %d, want 1", res.Active)
	}
	if res.Servers[0].Level != 0 {
		t.Fatalf("level = %d, want 0 (combined peak 5 fits 2.0 GHz)", res.Servers[0].Level)
	}
}

func TestOverflowPrefersLeastLoadedServer(t *testing.T) {
	m := power.E5410()
	ps := correlation.NewProfileSet(2)
	ps.Add(0, []float64{7, 7})
	ps.Add(1, []float64{3, 3}) // FFD order: 0 (7), 2 (6), then 1 (3) overflows
	ps.Add(2, []float64{6, 6})
	res := PlainFFD([]int{0, 1, 2}, ps, m, 2)
	if res.Overflowed != 1 {
		t.Fatalf("overflowed = %d, want 1", res.Overflowed)
	}
	// The overflow VM must land on the less-peaked server (the one with
	// the 6-core VM), not the fullest.
	for _, srv := range res.Servers {
		for _, id := range srv.VMs {
			if id == 1 {
				for _, other := range srv.VMs {
					if other == 0 {
						t.Fatal("overflow landed on the fullest server")
					}
				}
			}
		}
	}
}

func TestZeroServerBudgetStillPlaces(t *testing.T) {
	m := power.E5410()
	ps := correlation.NewProfileSet(2)
	ps.Add(0, []float64{1, 1})
	res := CorrelationAware([]int{0}, ps, m, 0)
	placed := 0
	for _, srv := range res.Servers {
		placed += len(srv.VMs)
	}
	if placed != 1 {
		t.Fatal("VM dropped under zero server budget")
	}
	if res.Overflowed != 1 {
		t.Fatalf("overflow not flagged: %d", res.Overflowed)
	}
}
