package alloc

import (
	"testing"

	"geovmp/internal/correlation"
	"geovmp/internal/power"
)

// serverOf builds a dense VM-id-indexed lookup from a pack's membership
// lists: slot id holds the index of the server hosting that VM, or -1 for
// ids the pack does not place. It fails the test if any id sits on two
// servers or twice on one.
func serverOf(t *testing.T, r Result) []int {
	t.Helper()
	maxID := -1
	for _, srv := range r.Servers {
		for _, id := range srv.VMs {
			if id < 0 {
				t.Fatalf("negative vm id %d placed", id)
			}
			if id > maxID {
				maxID = id
			}
		}
	}
	out := make([]int, maxID+1)
	for i := range out {
		out[i] = -1
	}
	for s, srv := range r.Servers {
		for _, id := range srv.VMs {
			if out[id] != -1 {
				t.Fatalf("vm %d placed on server %d and server %d", id, out[id], s)
			}
			out[id] = s
		}
	}
	return out
}

func TestServerOfMapping(t *testing.T) {
	m := power.E5410()
	// Id 1 is deliberately absent: the pack must not invent it.
	profiles := map[int][]float64{0: {5, 5}, 2: {5, 5}, 3: {1, 1}}
	res := CorrelationAware(idsOf(profiles), buildPS(profiles), m, 10)
	byVM := serverOf(t, res)
	if len(byVM) != 4 {
		t.Fatalf("mapping size %d, want max id + 1 = 4", len(byVM))
	}
	if byVM[1] != -1 {
		t.Fatalf("unplaced id 1 mapped to %d, want -1", byVM[1])
	}
	for id := range profiles {
		if byVM[id] == -1 {
			t.Fatalf("vm %d not placed", id)
		}
	}
}

func TestServerOfMatchesPacking(t *testing.T) {
	// A real correlation-aware pack under a tight 3-server budget: every
	// input id lands on exactly one server and no other id appears.
	ps := correlation.NewProfileSet(4)
	ids := []int{0, 2, 3, 7, 8, 11}
	for k, id := range ids {
		prof := make([]float64, 4)
		for i := range prof {
			prof[i] = 0.2 + 0.1*float64((k+i)%4)
		}
		ps.Add(id, prof)
	}
	r := CorrelationAware(ids, ps, power.E5410(), 3)
	got := serverOf(t, r)
	placed := 0
	for _, srv := range got {
		if srv != -1 {
			placed++
		}
	}
	if placed != len(ids) {
		t.Fatalf("pack placed %d distinct ids, want %d", placed, len(ids))
	}
	for _, id := range ids {
		if id >= len(got) || got[id] == -1 {
			t.Fatalf("input id %d not placed", id)
		}
	}
}
