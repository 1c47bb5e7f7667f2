package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"geovmp/internal/config"
	"geovmp/internal/sim"
	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

func testScenario(t testing.TB, scale float64) *sim.Scenario {
	t.Helper()
	spec, err := config.Preset("geo5dc-dynamic")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = scale
	sc, err := config.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func testDaemon(t *testing.T, mod func(*Options)) *Daemon {
	t.Helper()
	sc := testScenario(t, 0.01)
	opt := Options{Fleet: sc.Fleet, Topo: sc.Topo, Seed: 7}
	if mod != nil {
		mod(&opt)
	}
	d, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestNamedIDsGrowNoResidency pins the per-id memory a request can commit:
// an id named only as a flow peer or an observed volume's endpoint takes an
// adjacency entry, while the residency tables reach only past the largest
// id ever resident.
func TestNamedIDsGrowNoResidency(t *testing.T) {
	d := testDaemon(t, nil)
	if _, err := d.Place(VM{ID: 3, Profile: testProfile(0.4), Flows: []Flow{{Peer: MaxWireID, ToPeer: 100}}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Observe(Observation{Volumes: []VolumeObs{{From: 3, To: MaxWireID - 1, Vol: 50}}}); err != nil {
		t.Fatal(err)
	}
	st := d.st
	for name, n := range map[string]int{"pos": len(st.pos), "dcOf": len(st.dcOf), "srvOf": len(st.srvOf), "actPos": len(st.actPos)} {
		if n > 4 {
			t.Errorf("%s spans %d ids after placing id 3", name, n)
		}
	}
	if d.Resident(MaxWireID) || d.Resident(MaxWireID-1) {
		t.Fatal("a named peer reads as resident")
	}
	dec, err := d.Place(VM{ID: MaxWireID, Profile: testProfile(0.3)})
	if err != nil {
		t.Fatal(err)
	}
	if d.DCOf(MaxWireID) != dec.DC {
		t.Fatalf("DCOf(MaxWireID) = %d, want %d", d.DCOf(MaxWireID), dec.DC)
	}
}

func testProfile(v float64) []float64 {
	p := make([]float64, sim.DefaultProfileSamples)
	for i := range p {
		p[i] = v
	}
	return p
}

func TestPlaceDepartLifecycle(t *testing.T) {
	d := testDaemon(t, nil)
	dec, err := d.Place(VM{ID: 1, Profile: testProfile(0.4)})
	if err != nil {
		t.Fatal(err)
	}
	if dec.ID != 1 || dec.DC < 0 || dec.DC >= len(d.opt.Fleet) || dec.Server < 0 {
		t.Fatalf("bad decision: %+v", dec)
	}
	if dec.Overflowed {
		t.Fatalf("first VM overflowed: %+v", dec)
	}
	if !d.Resident(1) || d.DCOf(1) != dec.DC {
		t.Fatalf("residency not recorded: dc=%d", d.DCOf(1))
	}
	if srv := d.st.srvOf[1]; srv != dec.Server {
		t.Fatalf("server of vm 1 = %d, want %d", srv, dec.Server)
	}

	if _, err := d.Place(VM{ID: 1, Profile: testProfile(0.4)}); err != ErrAlreadyPlaced {
		t.Fatalf("duplicate place: err = %v, want ErrAlreadyPlaced", err)
	}
	if _, err := d.Place(VM{ID: -1, Profile: testProfile(0.4)}); err != ErrBadID {
		t.Fatalf("negative id: err = %v, want ErrBadID", err)
	}
	if ok, _ := d.Depart(-1); ok || d.Resident(-1) || d.Resident(1<<30) {
		t.Fatal("an id outside the tables reads as resident")
	}
	// The packers' deferred rebuilds need non-negative samples, so Go
	// callers' profiles are held to the wire's check.
	for _, bad := range []float64{-0.1, math.NaN(), math.Inf(1)} {
		prof := testProfile(0.4)
		prof[3] = bad
		if _, err := d.Place(VM{ID: 9, Profile: prof}); err != ErrBadProfile {
			t.Fatalf("sample %v: place err = %v, want ErrBadProfile", bad, err)
		}
		obs := Observation{VMs: []VMProfile{{ID: 1, Profile: testProfile(0.9)}, {ID: 9, Profile: prof}}}
		if err := d.Observe(obs); err != ErrBadProfile {
			t.Fatalf("sample %v: observe err = %v, want ErrBadProfile", bad, err)
		}
	}
	if d.Resident(9) || d.Board().Snapshot().Counters["serve_observations_total"] != 0 {
		t.Fatal("a refused profile reached the state")
	}

	// A second VM declaring traffic with the first should follow it: every
	// score term except cross-traffic is DC-symmetric this early, so the
	// shared-DC candidate wins.
	dec2, err := d.Place(VM{ID: 2, Profile: testProfile(0.3), Flows: []Flow{{Peer: 1, ToPeer: 500, FromPeer: 250}}})
	if err != nil {
		t.Fatal(err)
	}
	if dec2.DC != dec.DC {
		t.Fatalf("correlated VM placed at DC %d, its peer at %d", dec2.DC, dec.DC)
	}

	ok, err := d.Depart(1)
	if err != nil || !ok {
		t.Fatalf("depart: ok=%v err=%v", ok, err)
	}
	if ok, _ := d.Depart(1); ok {
		t.Fatal("double depart reported removal")
	}
	if d.Resident(1) || d.DCOf(1) != -1 {
		t.Fatal("departed VM still resident")
	}
	if n := d.NumResidents(); n != 1 {
		t.Fatalf("NumResidents = %d, want 1", n)
	}

	snap := d.Board().Snapshot()
	if snap.Counters["serve_placements_total"] != 2 || snap.Counters["serve_departures_total"] != 1 {
		t.Fatalf("counters: %+v", snap.Counters)
	}
	if snap.Hists["serve_decision_latency"].Count != 2 {
		t.Fatalf("latency count: %+v", snap.Hists)
	}
}

func TestObserveRefreshesState(t *testing.T) {
	d := testDaemon(t, nil)
	if _, err := d.Place(VM{ID: 3, Profile: testProfile(0.2)}); err != nil {
		t.Fatal(err)
	}
	err := d.Observe(Observation{
		Slot:    1,
		VMs:     []VMProfile{{ID: 3, Profile: testProfile(0.8)}},
		Volumes: []VolumeObs{{From: 3, To: 9, Vol: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.mu.RLock()
	peak := d.st.ps.Peak(3)
	ref := d.st.ref
	slot := d.st.slot
	d.mu.RUnlock()
	if peak != 0.8 {
		t.Fatalf("observed profile not applied: peak=%v", peak)
	}
	if ref != 100 || slot != 1 {
		t.Fatalf("volume/slot refresh: ref=%v slot=%d", ref, slot)
	}
}

func TestOverflowSpillsDeterministically(t *testing.T) {
	d := testDaemon(t, nil)
	total := 0
	for _, dcI := range d.opt.Fleet {
		total += dcI.Servers
	}
	// Each near-capacity VM takes a whole server; once every server in the
	// fleet is taken, further arrivals must still be placed, flagged
	// overflowed.
	cap0 := d.opt.Fleet[0].Model.MaxCapacity()
	prof := testProfile(0.9 * cap0)
	overflowed := 0
	for id := 0; id < total+3; id++ {
		dec, err := d.Place(VM{ID: id, Profile: prof})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Overflowed {
			overflowed++
		}
	}
	if overflowed != 3 {
		t.Fatalf("overflowed = %d, want 3 (fleet of %d servers)", overflowed, total)
	}
	if got := d.Board().Counter("serve_overflows_total").Value(); got != 3 {
		t.Fatalf("overflow counter = %d", got)
	}
}

func TestQueueBackpressure(t *testing.T) {
	d := testDaemon(t, func(o *Options) { o.QueueCap = 1 })
	if d.admit() != nil {
		t.Fatal("empty queue refused admission")
	}
	if _, err := d.Place(VM{ID: 1, Profile: testProfile(0.4)}); err != ErrQueueFull {
		t.Fatalf("saturated queue: err = %v, want ErrQueueFull", err)
	}
	d.release()
	if _, err := d.Place(VM{ID: 1, Profile: testProfile(0.4)}); err != nil {
		t.Fatalf("after release: %v", err)
	}
	if got := d.Board().Counter("serve_rejections_total").Value(); got != 1 {
		t.Fatalf("rejections = %d", got)
	}
}

func TestDrainStopsAdmission(t *testing.T) {
	d := testDaemon(t, nil)
	if _, err := d.Place(VM{ID: 1, Profile: testProfile(0.4)}); err != nil {
		t.Fatal(err)
	}
	d.Drain()
	if _, err := d.Place(VM{ID: 2, Profile: testProfile(0.4)}); err != ErrDraining {
		t.Fatalf("place after drain: %v", err)
	}
	if _, err := d.Depart(1); err != ErrDraining {
		t.Fatalf("depart after drain: %v", err)
	}
	if err := d.Observe(Observation{Slot: 1}); err != ErrDraining {
		t.Fatalf("observe after drain: %v", err)
	}
	d.Drain() // idempotent
}

// TestAlphaDefaults pins how Options.Alpha resolves: zero, NaN and values
// outside (0, 1] select the 0.9 default, and an in-range value is kept.
func TestAlphaDefaults(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{0, 0.9}, {math.NaN(), 0.9}, {-0.5, 0.9}, {1.5, 0.9}, {0.3, 0.3}, {1, 1},
	} {
		d := testDaemon(t, func(o *Options) { o.Alpha = tc.in })
		if got := d.Options().Alpha; got != tc.want {
			t.Fatalf("Alpha %v resolved to %v, want %v", tc.in, got, tc.want)
		}
	}
}

// decisionKey strips the non-semantic fields (latency) for comparison.
type decisionKey struct {
	ID, DC, Server int
	Overflowed     bool
	Seq            uint64
}

// TestReplayDeterministic is the deterministic-admission property: the same
// arrival log replayed at parallelism 1, 2 and GOMAXPROCS+6, with 1 and 3
// Options.Workers sharding the reconciler's embedding (besides the core a
// landing turn lends it), must produce identical decisions, with the
// reconciler deliberately tuned hot enough to land several times mid-log.
func TestReplayDeterministic(t *testing.T) {
	sc := testScenario(t, 0.02)
	events := EventsFromTrace(sc.Workload, 24, sim.DefaultProfileSamples)
	if len(events) < 100 {
		t.Fatalf("log too small to be interesting: %d events", len(events))
	}
	var ref []decisionKey
	for _, run := range []struct{ workers, recWorkers int }{
		{1, 1}, {2, 1}, {runtime.GOMAXPROCS(0) + 6, 1},
		{1, 3}, {2, 3}, {runtime.GOMAXPROCS(0) + 6, 3},
	} {
		workers := run.workers
		d, err := New(Options{
			Fleet: sc.Fleet, Topo: sc.Topo, Seed: 7,
			ReconcileEvery: 64, Workers: run.recWorkers,
		})
		if err != nil {
			t.Fatal(err)
		}
		decs := d.Replay(events, workers)
		d.Drain()
		keys := make([]decisionKey, len(decs))
		placed := 0
		for k, dec := range decs {
			keys[k] = decisionKey{ID: dec.ID, DC: dec.DC, Server: dec.Server, Overflowed: dec.Overflowed, Seq: dec.Seq}
			if events[k].Kind == EvPlace && dec.ID == events[k].VM.ID {
				placed++
			}
		}
		if placed == 0 {
			t.Fatalf("%+v: no placements recorded", run)
		}
		snap := d.Board().Snapshot()
		landed := snap.Counters["serve_reconciles_total"]
		if landed == 0 {
			t.Fatalf("%+v: reconciler never landed; test is not exercising it", run)
		}
		if n := snap.Hists["serve_reconcile_wait"].Count; n != landed {
			t.Fatalf("%+v: serve_reconcile_wait recorded %d landings, %d landed", run, n, landed)
		}
		if ref == nil {
			ref = keys
			continue
		}
		for k := range keys {
			if keys[k] != ref[k] {
				t.Fatalf("%+v: decision %d diverged: %+v vs %+v", run, k, keys[k], ref[k])
			}
		}
	}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPAPI(t *testing.T) {
	d := testDaemon(t, nil)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/v1/place", placeRequest{ID: 1, Profile: testProfile(0.4)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("place: status %d", resp.StatusCode)
	}
	var pr placeResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pr.ID != 1 || pr.DC < 0 {
		t.Fatalf("place response: %+v", pr)
	}

	if resp := postJSON(t, srv.URL+"/v1/place", placeRequest{ID: 1, Profile: testProfile(0.4)}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate place: status %d", resp.StatusCode)
	}
	if resp, _ := http.Post(srv.URL+"/v1/place", "application/json", strings.NewReader("{")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v1/place", placeRequest{ID: 5}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty profile: status %d", resp.StatusCode)
	}

	resp = postJSON(t, srv.URL+"/v1/observe", observeRequest{
		Slot: 1,
		VMs:  []vmProfileJSON{{ID: 1, Profile: testProfile(0.6)}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: status %d", resp.StatusCode)
	}

	resp = postJSON(t, srv.URL+"/v1/depart", departRequest{ID: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("depart: status %d", resp.StatusCode)
	}
	var dr departResponse
	json.NewDecoder(resp.Body).Decode(&dr)
	resp.Body.Close()
	if !dr.Removed {
		t.Fatalf("depart response: %+v", dr)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil || mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %v %v", err, mresp)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(buf.String(), "serve_placements_total 1") {
		t.Fatalf("metrics exposition missing counters:\n%s", buf.String())
	}

	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v", err)
	}
	var h healthResponse
	json.NewDecoder(hresp.Body).Decode(&h)
	hresp.Body.Close()
	if h.Status != "ok" || h.SLOMS <= 0 {
		t.Fatalf("healthz: %+v", h)
	}
}

func TestHTTPBackpressureAndDrain(t *testing.T) {
	d := testDaemon(t, func(o *Options) { o.QueueCap = 1 })
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	if d.admit() != nil {
		t.Fatal("admission failed")
	}
	resp := postJSON(t, srv.URL+"/v1/place", placeRequest{ID: 1, Profile: testProfile(0.4)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated place: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	d.release()

	if resp := postJSON(t, srv.URL+"/v1/drain", struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v1/place", placeRequest{ID: 2, Profile: testProfile(0.4)}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("place after drain: status %d", resp.StatusCode)
	}
	hresp, _ := http.Get(srv.URL + "/healthz")
	var h healthResponse
	json.NewDecoder(hresp.Body).Decode(&h)
	hresp.Body.Close()
	if h.Status != "draining" || !h.Draining {
		t.Fatalf("healthz after drain: %+v", h)
	}
}

// TestSimPolicyMatchesEngine drives the daemon through the batch simulator:
// the adapter must produce a complete, accountable placement every slot.
func TestSimPolicyMatchesEngine(t *testing.T) {
	sc := testScenario(t, 0.01)
	sc.Horizon = timeutil.Days(1)
	d, err := New(Options{Fleet: sc.Fleet, Topo: sc.Topo, Seed: sc.Seed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sc, NewSimPolicy(d))
	if err != nil {
		t.Fatal(err)
	}
	if res.OpCost <= 0 || res.TotalEnergy <= 0 {
		t.Fatalf("degenerate result: cost=%v energy=%v", res.OpCost, res.TotalEnergy)
	}
	if d.Board().Counter("serve_placements_total").Value() == 0 {
		t.Fatal("daemon never placed anything")
	}
}

// TestReplayDigest pins the daemon's decision stream and final layout on
// one replayed log: a SHA-256 over every decision's (ID, DC, Server, Seq,
// Overflowed) in event order, then every resident's id and position bits in
// ascending id order. The log ends above embed's exact threshold, so the
// reconciler runs the sampled mode, and its 18 landings, the per-arrival
// refinement and the score weights all reach the digest: any change to the
// serving tuning or the turn protocol moves it. It must read the same at
// Workers 1 and 4, and under -tags purego.
func TestReplayDigest(t *testing.T) {
	sc := testScenario(t, 0.02)
	events := EventsFromTrace(sc.Workload, 24, sim.DefaultProfileSamples)
	if len(events) != 1256 {
		t.Fatalf("log has %d events, want 1256", len(events))
	}
	for _, workers := range []int{1, 4} {
		d, err := New(Options{Fleet: sc.Fleet, Topo: sc.Topo, Seed: 7, ReconcileEvery: 64, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		decs := d.Replay(events, 1)
		d.Drain()

		if n := d.Board().Counter("serve_reconciles_total").Value(); n != 18 {
			t.Fatalf("Workers %d: %d reconciles landed, want 18", workers, n)
		}
		if n := d.NumResidents(); n != 608 {
			t.Fatalf("Workers %d: %d residents, want 608", workers, n)
		}
		const want = "0e714c74a3d453a482f4cc677444f71b0e01ce6e6a88de698a86268ef83a74c8"
		if got := replayDigest(d, decs); got != want {
			t.Fatalf("Workers %d: replay digest %s, want %s", workers, got, want)
		}
	}
}

// TestReplayDigestDefaultCadence pins the decision stream and final layout
// at the default cadence (ReconcileEvery 512), where each reconciliation
// lands at the next trigger — ReconcileEvery 64 cannot tell that from a
// fixed 64-operation lag. A three-day log holds four triggers, so three
// jobs land, each after a whole window in the background. The digest must
// read the same at Workers 1 and 4, and under -tags purego.
func TestReplayDigestDefaultCadence(t *testing.T) {
	sc := testScenario(t, 0.02)
	events := EventsFromTrace(sc.Workload, 72, sim.DefaultProfileSamples)
	if len(events) != 2511 {
		t.Fatalf("log has %d events, want 2511", len(events))
	}
	for _, workers := range []int{1, 4} {
		d, err := New(Options{Fleet: sc.Fleet, Topo: sc.Topo, Seed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		decs := d.Replay(events, 1)
		d.Drain()

		snap := d.Board().Snapshot()
		landed := snap.Counters["serve_reconciles_total"]
		if landed != 3 {
			t.Fatalf("Workers %d: %d reconciles landed, want 3", workers, landed)
		}
		if late := snap.Counters["serve_reconcile_late_total"]; late > landed {
			t.Fatalf("Workers %d: %d late landings of %d", workers, late, landed)
		}
		if !strings.Contains(snap.Text(), "serve_reconcile_late_total") {
			t.Fatalf("Workers %d: serve_reconcile_late_total missing from the board's text", workers)
		}
		const want = "d48ffb50d6af2842d15ba07cb10d65c35f430e688e130754f0b8d52c93f75336"
		if got := replayDigest(d, decs); got != want {
			t.Fatalf("Workers %d: replay digest %s, want %s", workers, got, want)
		}
	}
}

// TestReconcileLandsAtNextTrigger pins the landing points: a replay of
// exactly k·E + r sequenced operations (1 <= r < E) triggers at E, 2E, ...,
// kE and lands each job at the next trigger, so k-1 jobs land and the one
// triggered at kE is still pending when the log ends.
func TestReconcileLandsAtNextTrigger(t *testing.T) {
	sc := testScenario(t, 0.02)
	events := EventsFromTrace(sc.Workload, 72, sim.DefaultProfileSamples)
	for _, tc := range []struct{ every, k, r int }{
		{0, 1, 1}, {0, 2, 511}, {0, 4, 100},
		{64, 1, 63}, {64, 5, 1}, {100, 7, 33},
	} {
		e := tc.every
		if e == 0 {
			e = 512 // the default cadence
		}
		n := tc.k*e + tc.r
		d, err := New(Options{Fleet: sc.Fleet, Topo: sc.Topo, Seed: 7, ReconcileEvery: tc.every})
		if err != nil {
			t.Fatal(err)
		}
		d.Replay(events[:n], 2)
		d.Drain()
		if landed := d.Board().Counter("serve_reconciles_total").Value(); landed != int64(tc.k-1) {
			t.Fatalf("%+v: %d operations landed %d reconciles, want %d", tc, n, landed, tc.k-1)
		}
	}
}

// TestDrainJoinsReconciler holds that no reconciliation outlives Drain:
// the log ends on a trigger, so the job that trigger launched has barely
// started when the last operation commits, and once Drain returns no
// goroutine may still be inside the reconciler's embedding, nor any job be
// pending. The decisions are TestReplayDigest's to pin.
func TestDrainJoinsReconciler(t *testing.T) {
	sc := testScenario(t, 0.02)
	events := EventsFromTrace(sc.Workload, 72, sim.DefaultProfileSamples)
	d, err := New(Options{Fleet: sc.Fleet, Topo: sc.Topo, Seed: 7, ReconcileEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	d.Replay(events[:2*64+1], 2)
	d.mu.Lock()
	pending := d.recon != nil
	d.mu.Unlock()
	if !pending {
		t.Fatal("no reconciliation pending after the log's last trigger")
	}
	d.Drain()
	if d.recon != nil {
		t.Fatal("a reconciliation is still pending after Drain")
	}
	buf := make([]byte, 1<<20)
	if stacks := buf[:runtime.Stack(buf, true)]; bytes.Contains(stacks, []byte("(*reconSnap).run")) {
		t.Fatalf("a reconciler goroutine outlived Drain:\n%s", stacks)
	}
	d.Drain() // a second Drain finds nothing to join
}

// TestLeastLoadedUp pins the overflow seat: the least-loaded healthy DC,
// the lowest index on ties, the least-loaded DC overall when every DC is
// down, and a NaN load that never compares less (it keeps the seat only
// as the first candidate) — the choices the two-scan version made.
func TestLeastLoadedUp(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		used []float64
		down []bool
		want int
	}{
		{"all up", []float64{0.5, 0.2, 0.7}, []bool{false, false, false}, 1},
		{"least loaded down", []float64{0.5, 0.2, 0.7}, []bool{false, true, false}, 0},
		{"only the busiest up", []float64{0.5, 0.2, 0.7}, []bool{true, true, false}, 2},
		{"all down", []float64{0.5, 0.2, 0.7}, []bool{true, true, true}, 1},
		{"tie", []float64{0.4, 0.3, 0.3}, []bool{false, false, false}, 1},
		{"tie all down", []float64{0.3, 0.3}, []bool{true, true}, 0},
		{"NaN first", []float64{nan, 0.2, 0.7}, []bool{false, false, false}, 0},
		{"NaN later", []float64{0.5, nan, 0.2}, []bool{false, false, false}, 2},
		{"NaN first healthy", []float64{0.1, nan, 0.2}, []bool{true, false, false}, 1},
		{"NaN all down", []float64{nan, 0.1}, []bool{true, true}, 0},
	} {
		got := leastLoaded(tc.down, func(i int) float64 { return tc.used[i] })
		if got != tc.want {
			t.Errorf("%s: leastLoaded = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestAdjacencyCoversVolumes holds the invariant the degree-bounded paths
// rest on: every pair of the volume matrix is in the daemon's adjacency,
// both ways. A departure removes only the pairs its adjacency names, and
// the refinement evaluates only repulsion for a sampled resident outside
// it. The log is the replay log with flows declared on every arrival (to
// residents, departed and never-placed ids, itself and a negative id),
// and the check runs after every event, with the dense residency tables
// checked against the active list.
func TestAdjacencyCoversVolumes(t *testing.T) {
	sc := testScenario(t, 0.01)
	events := EventsFromTrace(sc.Workload, 12, sim.DefaultProfileSamples)
	d, err := New(Options{Fleet: sc.Fleet, Topo: sc.Topo, Seed: 7, ReconcileEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	var placed []int
	departs := 0
	for k, ev := range events {
		switch ev.Kind {
		case EvPlace:
			vm := ev.VM
			for i, q := range []int{k % 7, vm.ID, -3, vm.ID + 5000} {
				if i == 0 && len(placed) > 0 {
					q = placed[(k*31)%len(placed)]
				}
				vm.Flows = append(vm.Flows, Flow{Peer: q, ToPeer: units.DataSize(k%5) * 10, FromPeer: units.DataSize(i) * 7})
			}
			if _, err := d.Place(vm); err != nil {
				t.Fatalf("event %d: %v", k, err)
			}
			placed = append(placed, vm.ID)
		case EvDepart:
			if ok, _ := d.Depart(ev.ID); ok {
				departs++
			}
		case EvObserve:
			d.Observe(ev.Obs)
		}
		st := d.st
		st.dm.Each(func(from, to int, _ units.DataSize) {
			if !slices.Contains(st.peersOf(from), to) || !slices.Contains(st.peersOf(to), from) {
				t.Fatalf("event %d: pair %d->%d is missing from the adjacency", k, from, to)
			}
		})
		for i, id := range st.active {
			if st.actPos[id] != i || st.dcAt(id) < 0 {
				t.Fatalf("event %d: active[%d] = %d, actPos %d, dc %d", k, i, id, st.actPos[id], st.dcAt(id))
			}
		}
		resident := 0
		for id := range st.dcOf {
			if st.dcAt(id) >= 0 {
				resident++
			}
		}
		if resident != len(st.active) {
			t.Fatalf("event %d: %d ids hold a DC, %d are active", k, resident, len(st.active))
		}
	}
	if departs == 0 || d.st.dm.Mean() == 0 {
		t.Fatalf("degenerate log: %d departures, no pairs left", departs)
	}
}
