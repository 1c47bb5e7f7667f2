package alloc

import (
	"testing"

	"geovmp/internal/correlation"
	"geovmp/internal/power"
	"geovmp/internal/rng"
)

// buildPS registers n VMs with the given profiles.
func buildPS(profiles map[int][]float64) *correlation.ProfileSet {
	samples := 0
	for _, p := range profiles {
		samples = len(p)
		break
	}
	ps := correlation.NewProfileSet(samples)
	ids := make([]int, 0, len(profiles))
	for id := range profiles {
		ids = append(ids, id)
	}
	// Insert deterministically.
	for id := 0; id <= maxID(ids); id++ {
		if p, ok := profiles[id]; ok {
			ps.Add(id, p)
		}
	}
	return ps
}

func maxID(ids []int) int {
	m := 0
	for _, id := range ids {
		if id > m {
			m = id
		}
	}
	return m
}

func idsOf(profiles map[int][]float64) []int {
	var ids []int
	for id := 0; id <= maxID(keys(profiles)); id++ {
		if _, ok := profiles[id]; ok {
			ids = append(ids, id)
		}
	}
	return ids
}

func keys(m map[int][]float64) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestAntiCorrelatedVMsShareServer(t *testing.T) {
	// Four VMs alternating peaks of 6 cores: stationary sizing needs one
	// server each (sum of peaks 12 > 8 per pair), but anti-correlated pairs
	// combine to a peak of 7 and fit pairwise.
	m := power.E5410()
	profiles := map[int][]float64{
		0: {6, 1, 6, 1},
		1: {1, 6, 1, 6},
		2: {6, 1, 6, 1},
		3: {1, 6, 1, 6},
	}
	ps := buildPS(profiles)
	ids := idsOf(profiles)

	corr := CorrelationAware(ids, ps, m, 10)
	plain := PlainFFD(ids, ps, m, 10)
	if corr.Active != 2 {
		t.Fatalf("correlation-aware used %d servers, want 2", corr.Active)
	}
	if plain.Active != 4 {
		t.Fatalf("plain FFD used %d servers, want 4", plain.Active)
	}
	// Each correlation-aware server must host one VM of each phase.
	for _, srv := range corr.Servers {
		if len(srv.VMs) != 2 {
			t.Fatalf("server VM count %d, want 2", len(srv.VMs))
		}
		phase := map[int]int{0: 0, 1: 1, 2: 0, 3: 1}
		if phase[srv.VMs[0]] == phase[srv.VMs[1]] {
			t.Fatalf("correlated VMs %v packed together", srv.VMs)
		}
	}
}

func TestCorrelatedVMsSeparated(t *testing.T) {
	// Two fully correlated 5-core VMs cannot share an 8-core server.
	m := power.E5410()
	profiles := map[int][]float64{
		0: {5, 5, 5, 5},
		1: {5, 5, 5, 5},
	}
	res := CorrelationAware(idsOf(profiles), buildPS(profiles), m, 10)
	if res.Active != 2 {
		t.Fatalf("used %d servers, want 2", res.Active)
	}
}

func TestNeverExceedsCapacityWhenServersAvailable(t *testing.T) {
	m := power.E5410()
	src := rng.New(3)
	profiles := map[int][]float64{}
	for id := 0; id < 60; id++ {
		p := make([]float64, 8)
		for i := range p {
			p[i] = src.Range(0, 1.5)
		}
		profiles[id] = p
	}
	ps := buildPS(profiles)
	ids := idsOf(profiles)
	for _, res := range []Result{
		CorrelationAware(ids, ps, m, 1000),
		PlainFFD(ids, ps, m, 1000),
	} {
		if res.Overflowed != 0 {
			t.Fatalf("unexpected overflow with unlimited servers")
		}
		for s, srv := range res.Servers {
			if srv.Peak > m.MaxCapacity()+1e-9 {
				t.Fatalf("server %d admission peak %v exceeds capacity", s, srv.Peak)
			}
		}
	}
}

// TestAllVMsPlacedExactlyOnce checks that every input id, and no other,
// lands on exactly one server: over sparse ids (every seventh id is
// missing), with servers to spare and under a budget that forces overflow.
func TestAllVMsPlacedExactlyOnce(t *testing.T) {
	m := power.E5410()
	src := rng.New(7)
	profiles := map[int][]float64{}
	for id := 0; id < 80; id++ {
		if id%7 == 1 {
			continue
		}
		p := make([]float64, 6)
		for i := range p {
			p[i] = src.Range(0.1, 2)
		}
		profiles[id] = p
	}
	ps := buildPS(profiles)
	ids := idsOf(profiles)
	for _, budget := range []int{100, 3} {
		res := CorrelationAware(ids, ps, m, budget)
		if budget == 3 && res.Overflowed == 0 {
			t.Fatal("a 3-server budget did not overflow")
		}
		seen := map[int]int{}
		for _, srv := range res.Servers {
			for _, id := range srv.VMs {
				seen[id]++
			}
		}
		if len(seen) != len(ids) {
			t.Fatalf("budget %d: placed %d distinct VMs, want %d", budget, len(seen), len(ids))
		}
		for _, id := range ids {
			if seen[id] != 1 {
				t.Fatalf("budget %d: vm %d placed %d times", budget, id, seen[id])
			}
		}
	}
}

func TestDVFSPicksLowestFeasibleLevel(t *testing.T) {
	m := power.E5410()
	// Peak 5 fits the 2.0 GHz capacity (6.96) -> level 0.
	low := map[int][]float64{0: {5, 5}}
	res := CorrelationAware(idsOf(low), buildPS(low), m, 10)
	if res.Servers[0].Level != 0 {
		t.Fatalf("level = %d, want 0", res.Servers[0].Level)
	}
	// Peak 7.5 needs 2.3 GHz -> level 1.
	high := map[int][]float64{0: {7.5, 7.5}}
	res = CorrelationAware(idsOf(high), buildPS(high), m, 10)
	if res.Servers[0].Level != 1 {
		t.Fatalf("level = %d, want 1", res.Servers[0].Level)
	}
}

func TestServerBudgetOverflow(t *testing.T) {
	m := power.E5410()
	profiles := map[int][]float64{}
	for id := 0; id < 6; id++ {
		profiles[id] = []float64{7, 7} // each nearly fills a server
	}
	res := CorrelationAware(idsOf(profiles), buildPS(profiles), m, 2)
	if res.Active != 2 {
		t.Fatalf("active %d, want capped at 2", res.Active)
	}
	if res.Overflowed != 4 {
		t.Fatalf("overflowed = %d, want 4", res.Overflowed)
	}
	placed := 0
	for _, srv := range res.Servers {
		placed += len(srv.VMs)
	}
	if placed != 6 {
		t.Fatalf("placed %d, want all 6 despite overflow", placed)
	}
}

func TestFewerOrEqualServersThanPlain(t *testing.T) {
	// Correlation-aware packing can never need more servers than stationary
	// FFD on the same input (its admission is strictly more permissive).
	m := power.E5410()
	src := rng.New(11)
	for trial := 0; trial < 10; trial++ {
		profiles := map[int][]float64{}
		n := 20 + src.Intn(40)
		for id := 0; id < n; id++ {
			p := make([]float64, 12)
			base := src.Range(0.2, 3)
			phase := src.Intn(12)
			for i := range p {
				p[i] = base * 0.3
			}
			p[phase] = base
			profiles[id] = p
		}
		ps := buildPS(profiles)
		ids := idsOf(profiles)
		ca := CorrelationAware(ids, ps, m, 1000)
		pl := PlainFFD(ids, ps, m, 1000)
		if ca.Active > pl.Active {
			t.Fatalf("trial %d: corr-aware %d servers > plain %d", trial, ca.Active, pl.Active)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	m := power.E5410()
	ps := correlation.NewProfileSet(4)
	res := CorrelationAware(nil, ps, m, 10)
	if res.Active != 0 || len(res.Servers) != 0 {
		t.Fatal("empty input should allocate nothing")
	}
}

func TestDeterministic(t *testing.T) {
	m := power.E5410()
	src := rng.New(13)
	profiles := map[int][]float64{}
	for id := 0; id < 50; id++ {
		p := make([]float64, 8)
		for i := range p {
			p[i] = src.Range(0, 2)
		}
		profiles[id] = p
	}
	ps := buildPS(profiles)
	ids := idsOf(profiles)
	a := CorrelationAware(ids, ps, m, 100)
	b := CorrelationAware(ids, ps, m, 100)
	if a.Active != b.Active {
		t.Fatal("active counts diverged")
	}
	for s := range a.Servers {
		if len(a.Servers[s].VMs) != len(b.Servers[s].VMs) {
			t.Fatal("allocations diverged")
		}
		for i := range a.Servers[s].VMs {
			if a.Servers[s].VMs[i] != b.Servers[s].VMs[i] {
				t.Fatal("allocations diverged")
			}
		}
	}
}
