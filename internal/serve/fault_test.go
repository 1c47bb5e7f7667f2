package serve

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"

	"geovmp/internal/fault"
	"geovmp/internal/sim"
	"geovmp/internal/timeutil"
)

func TestFaultEvacuatesAndBlocksAdmission(t *testing.T) {
	d := testDaemon(t, nil)
	var target int
	var ids []int
	for id := 0; id < 12; id++ {
		dec, err := d.Place(VM{ID: id, Profile: testProfile(0.3)})
		if err != nil {
			t.Fatal(err)
		}
		if id == 0 {
			target = dec.DC
		}
		if dec.DC == target {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		t.Fatal("no VM landed on the target DC")
	}

	moved, err := d.Fault(target, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != len(ids) {
		t.Fatalf("re-placed %d VMs, want %d (%v vs %v)", len(moved), len(ids), moved, ids)
	}
	for i := 1; i < len(moved); i++ {
		if moved[i-1] >= moved[i] {
			t.Fatalf("re-placement order not ascending: %v", moved)
		}
	}
	for _, id := range moved {
		if got := d.DCOf(id); got == target || got < 0 {
			t.Fatalf("vm %d still at down DC %d (got %d)", id, target, got)
		}
	}
	for i, dn := range d.st.dcDown {
		if dn != (i == target) {
			t.Fatalf("down DCs = %v, want only %d", d.st.dcDown, target)
		}
	}

	// New arrivals must avoid the down DC.
	dec, err := d.Place(VM{ID: 100, Profile: testProfile(0.3)})
	if err != nil {
		t.Fatal(err)
	}
	if dec.DC == target {
		t.Fatalf("arrival admitted to down DC %d", target)
	}

	// Flipping to the same state is a no-op; recovery reopens the DC.
	if again, _ := d.Fault(target, true); again != nil {
		t.Fatalf("repeated down flip re-placed %v", again)
	}
	if _, err := d.Fault(target, false); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(d.st.dcDown, true) {
		t.Fatalf("down DCs after recovery = %v", d.st.dcDown)
	}
	if got := d.Board().Counter("serve_faults_total").Value(); got != 3 {
		t.Fatalf("serve_faults_total = %d, want 3", got)
	}
}

// TestReplayWithFaultsDeterministic extends the deterministic-admission
// property to logs carrying fault events: the same merged log replayed at
// parallelism 1, 2 and GOMAXPROCS+6 yields identical decisions and final
// residency.
func TestReplayWithFaultsDeterministic(t *testing.T) {
	sc := testScenario(t, 0.02)
	events := EventsFromTrace(sc.Workload, 24, sim.DefaultProfileSamples)
	sched := fault.Compile(fault.Config{Outages: []fault.Outage{
		{Kind: fault.KindDC, DC: 1, Start: 4, Slots: 6},
		{Kind: fault.KindDC, DC: 3, Start: 12, Slots: 4},
	}}, len(sc.Fleet), 24, sc.Seed)
	events = InsertFaults(events, sched.DCTransitions())

	nFault := 0
	for _, ev := range events {
		if ev.Kind == EvFault {
			nFault++
		}
	}
	if nFault != 4 {
		t.Fatalf("merged log has %d fault events, want 4", nFault)
	}

	var ref []decisionKey
	var refRes []int
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0) + 6} {
		d, err := New(Options{
			Fleet: sc.Fleet, Topo: sc.Topo, Seed: 7,
			ReconcileEvery: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		decs := d.Replay(events, workers)
		d.Drain()
		keys := make([]decisionKey, len(decs))
		for k, dec := range decs {
			keys[k] = decisionKey{ID: dec.ID, DC: dec.DC, Server: dec.Server, Overflowed: dec.Overflowed, Seq: dec.Seq}
		}
		res := d.Residents()
		if ref == nil {
			ref, refRes = keys, res
			continue
		}
		for k := range keys {
			if keys[k] != ref[k] {
				t.Fatalf("workers=%d: decision %d diverged: %+v vs %+v", workers, k, keys[k], ref[k])
			}
		}
		if len(res) != len(refRes) {
			t.Fatalf("workers=%d: resident count diverged: %d vs %d", workers, len(res), len(refRes))
		}
		for k := range res {
			if res[k] != refRes[k] {
				t.Fatalf("workers=%d: resident %d diverged: %d vs %d", workers, k, res[k], refRes[k])
			}
		}
	}
}

func TestInsertFaultsOrdering(t *testing.T) {
	events := []Event{
		{Kind: EvObserve, Obs: Observation{Slot: 0}},
		{Kind: EvPlace, VM: VM{ID: 1}},
		{Kind: EvObserve, Obs: Observation{Slot: 1}},
		{Kind: EvPlace, VM: VM{ID: 2}},
	}
	trans := []fault.Transition{
		{Slot: 1, DC: 0, Down: true},
		{Slot: 3, DC: 0, Down: false},
	}
	out := InsertFaults(events, trans)
	if len(out) != 6 {
		t.Fatalf("merged log length %d, want 6", len(out))
	}
	// The slot-1 transition lands right after the slot-1 observation; the
	// past-horizon recovery is appended at the tail.
	if out[3].Kind != EvFault || out[3].Fault != (FaultEvent{DC: 0, Down: true}) {
		t.Fatalf("slot-1 fault misplaced: %+v", out[3])
	}
	if out[5].Kind != EvFault || out[5].Fault != (FaultEvent{DC: 0, Down: false}) {
		t.Fatalf("tail fault misplaced: %+v", out[5])
	}
}

func TestRequestDeadline(t *testing.T) {
	d := testDaemon(t, func(o *Options) { o.RequestTimeout = 30 * time.Millisecond })
	// Hold the admission sequence hostage so the HTTP request cannot
	// commit before its deadline.
	blocker := d.reserve(1)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/v1/place", placeRequest{ID: 1, Profile: testProfile(0.4)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline miss: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	resp.Body.Close()
	if got := d.Board().Counter("serve_deadline_total").Value(); got != 1 {
		t.Fatalf("serve_deadline_total = %d, want 1", got)
	}

	// Release the sequence; the stalled request commits harmlessly into
	// the buffered recorder and fast requests keep succeeding.
	d.turn(blocker, func() {})
	d.Drain()
	if !d.Resident(1) {
		t.Fatal("timed-out request's commit was lost")
	}
}

func TestRequestDeadlineDisabled(t *testing.T) {
	d := testDaemon(t, func(o *Options) { o.RequestTimeout = -1 })
	if d.opt.RequestTimeout != 0 {
		t.Fatalf("negative RequestTimeout resolved to %v, want 0", d.opt.RequestTimeout)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp := postJSON(t, srv.URL+"/v1/place", placeRequest{ID: 1, Profile: testProfile(0.4)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("place without deadline: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestFaultKeepsSimParity sanity-checks that a faulted daemon still serves
// the batch adapter without deadlock over a short horizon.
func TestFaultKeepsSimParity(t *testing.T) {
	sc := testScenario(t, 0.01)
	sc.Horizon = timeutil.Hours(6)
	d, err := New(Options{Fleet: sc.Fleet, Topo: sc.Topo, Seed: sc.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Fault(2, true); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sc, NewSimPolicy(d))
	if err != nil {
		t.Fatal(err)
	}
	if res.OpCost <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	for _, id := range d.Residents() {
		if d.DCOf(id) == 2 {
			t.Fatalf("vm %d admitted to down DC", id)
		}
	}
}
