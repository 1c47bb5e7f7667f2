package alloc

import (
	"testing"

	"geovmp/internal/power"
)

func flat(v float64, n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = v
	}
	return p
}

func TestTrackerProbeCommitBasics(t *testing.T) {
	m := power.E5410()
	cap0 := m.MaxCapacity()
	tr := NewTracker(m, 4, 4, nil)

	prof := flat(0.6*cap0, 4)
	srv, peak, ok := tr.Probe(prof)
	if !ok || srv != 0 {
		t.Fatalf("first probe: srv=%d ok=%v", srv, ok)
	}
	if peak != 0.6*cap0 {
		t.Fatalf("first probe peak = %v", peak)
	}
	tr.Commit(srv, 1, prof)
	if tr.Len() != 1 || tr.Servers() != 1 {
		t.Fatalf("after commit: len=%d servers=%d", tr.Len(), tr.Servers())
	}

	// A second 0.6-capacity VM cannot share the server (1.2 > capacity):
	// the probe must open server 1.
	srv, _, ok = tr.Probe(prof)
	if !ok || srv != 1 {
		t.Fatalf("second probe: srv=%d ok=%v", srv, ok)
	}
	tr.Commit(srv, 2, prof)

	// A small VM still fits on server 0.
	small := flat(0.2*cap0, 4)
	srv, _, ok = tr.Probe(small)
	if !ok || srv != 0 {
		t.Fatalf("small probe: srv=%d ok=%v", srv, ok)
	}
	tr.Commit(srv, 3, small)
	if got := tr.Members(0); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("server 0 members: %v", got)
	}
}

func TestTrackerCapacityExhaustionAndOverflow(t *testing.T) {
	m := power.E5410()
	cap0 := m.MaxCapacity()
	tr := NewTracker(m, 2, 4, nil)
	big := flat(0.9*cap0, 4)
	for id := 0; id < 2; id++ {
		srv, _, ok := tr.Probe(big)
		if !ok {
			t.Fatalf("probe %d refused with servers left", id)
		}
		tr.Commit(srv, id, big)
	}
	if _, _, ok := tr.Probe(big); ok {
		t.Fatal("probe succeeded on a full DC")
	}
	if spill := tr.Overflow(); spill != 0 && spill != 1 {
		t.Fatalf("overflow server = %d", spill)
	}
	// Overflow commit goes past capacity but must be tracked.
	tr.Commit(tr.Overflow(), 9, big)
	if tr.Len() != 3 {
		t.Fatalf("len after overflow commit = %d", tr.Len())
	}
	if tr.UsedFrac() <= 0.9 {
		t.Fatalf("UsedFrac after overflow = %v", tr.UsedFrac())
	}
}

func TestTrackerRemoveReopensCursor(t *testing.T) {
	m := power.E5410()
	cap0 := m.MaxCapacity()
	profiles := map[int][]float64{}
	profile := func(id int) []float64 { return profiles[id] }

	tr := NewTracker(m, 8, 4, profile)
	tr.probeLimit = 1
	// Fill server 0 tight so the cursor moves past it.
	p0 := flat(0.97*cap0, 4)
	profiles[0] = p0
	srv, _, _ := tr.Probe(p0)
	tr.Commit(srv, 0, p0)
	if tr.cursor != 1 {
		t.Fatalf("cursor = %d after packing server 0", tr.cursor)
	}

	p1 := flat(0.5*cap0, 4)
	profiles[1] = p1
	srv, _, _ = tr.Probe(p1)
	if srv != 1 {
		t.Fatalf("probe behind cursor: srv=%d", srv)
	}
	tr.Commit(srv, 1, p1)

	// Departing the big VM re-opens server 0 for the next probe: the
	// deferred rebuild runs at that read and moves the cursor back.
	if !tr.Remove(0, 0) {
		t.Fatal("remove failed")
	}
	srv, _, ok := tr.Probe(p1)
	if !ok || srv != 0 {
		t.Fatalf("probe after remove: srv=%d ok=%v", srv, ok)
	}
	if tr.cursor != 0 {
		t.Fatalf("cursor = %d after freeing server 0", tr.cursor)
	}
	if tr.Remove(3, 99) || tr.Remove(0, 99) {
		t.Fatal("remove of unknown id reported success")
	}
}

func TestTrackerRebuildAllTracksNewProfiles(t *testing.T) {
	m := power.E5410()
	cap0 := m.MaxCapacity()
	profiles := map[int][]float64{
		1: flat(0.3*cap0, 4),
		2: flat(0.3*cap0, 4),
	}
	profile := func(id int) []float64 { return profiles[id] }
	tr := NewTracker(m, 4, 4, profile)
	for id := 1; id <= 2; id++ {
		srv, _, _ := tr.Probe(profiles[id])
		tr.Commit(srv, id, profiles[id])
	}
	if tr.Servers() != 1 {
		t.Fatalf("servers = %d", tr.Servers())
	}
	// Telemetry refresh: both VMs now peak much higher; the rebuilt
	// aggregate must reflect it and push the next arrival to a new server.
	profiles[1] = flat(0.6*cap0, 4)
	profiles[2] = flat(0.39*cap0, 4)
	tr.RebuildAll()
	srv, _, ok := tr.Probe(flat(0.2*cap0, 4))
	if !ok || srv != 1 {
		t.Fatalf("probe after rebuild: srv=%d ok=%v", srv, ok)
	}
}
