package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"geovmp/internal/config"
	"geovmp/internal/correlation"
	"geovmp/internal/fault"
	"geovmp/internal/sim"
	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

// observeFull is observe as it was before it tracked changes, kept as its
// oracle: every profile re-added, the volume matrix reset and refilled
// pair by pair, the adjacency rebuilt over the whole id range, and every
// packer rebuilt.
func (s *state) observeFull(o *Observation) {
	if o.Slot != s.slot {
		s.slot = o.Slot
		s.refreshPrices()
	}
	for _, v := range o.VMs {
		s.ps.Add(v.ID, normalizeProfile(v.Profile, s.opt.Samples))
	}
	s.dm.Reset()
	for _, ve := range o.Volumes {
		s.dm.Add(ve.From, ve.To, ve.Vol)
	}
	s.ref = s.dm.Mean()
	s.rebuildPeers()
	for _, tr := range s.packs {
		tr.RebuildAll()
	}
}

// rebuildPeers re-derives the whole adjacency from the volume matrix
// through the first-encounter walk of an Adjacency that binds every id to
// itself.
func (s *state) rebuildPeers() {
	n := 0
	s.dm.Each(func(from, to int, _ units.DataSize) { n = max(n, from+1, to+1) })
	ids := make([]int, n)
	for id := range ids {
		ids[id] = id
	}
	var adj correlation.Adjacency
	s.dm.Adjacency(&adj, ids)
	s.peers = grown(s.peers, n, nil)
	clear(s.peers)
	for id := 0; id < n; id++ {
		if lo, hi := adj.Row(id); lo < hi {
			for _, j := range adj.Peer[lo:hi] {
				s.peers[id] = append(s.peers[id], int(j))
			}
		}
	}
}

// oracleDaemon feeds events one at a time to a daemon and, between them,
// puts the eager paths back: after an observation the full rebuild
// (observeFull over the state the observation left, which replaces every
// structure it touches), and after a departure or fault a read of every
// packer, so each deferred rebuild runs at once, as the eager Remove did.
type oracleDaemon struct{ *Daemon }

func (d oracleDaemon) apply(ev *Event) Decision {
	var dec Decision
	switch ev.Kind {
	case EvPlace:
		dec, _ = d.Place(ev.VM)
	case EvDepart:
		d.Depart(ev.ID)
	case EvObserve:
		d.Observe(ev.Obs)
		d.mu.Lock()
		d.st.observeFull(&ev.Obs)
		d.mu.Unlock()
	case EvFault:
		d.Fault(ev.Fault.DC, ev.Fault.Down)
	}
	d.mu.Lock()
	for _, tr := range d.st.packs {
		tr.UsedFrac()
	}
	d.mu.Unlock()
	return dec
}

// sameState compares two daemons' adjacency list for list and their
// packers' members server for server, and with loads set, each DC's load
// bits. Reading a load runs a's deferred rebuilds, so the caller asks for
// it only where a has just run them itself.
func sameState(t *testing.T, k int, a, b *state, loads bool) {
	t.Helper()
	for id := 0; id < max(len(a.peers), len(b.peers)); id++ {
		if got, want := a.peersOf(id), b.peersOf(id); !slices.Equal(got, want) {
			t.Fatalf("event %d: id %d's peers %v, full rebuild %v", k, id, got, want)
		}
	}
	for i := range a.packs {
		ta, tb := a.packs[i], b.packs[i]
		if loads {
			if ua, ub := ta.UsedFrac(), tb.UsedFrac(); math.Float64bits(ua) != math.Float64bits(ub) {
				t.Fatalf("event %d: DC %d load %v, eager %v", k, i, ua, ub)
			}
		}
		for srv := 0; srv < a.opt.Fleet[i].Servers; srv++ {
			if !slices.Equal(ta.Members(srv), tb.Members(srv)) {
				t.Fatalf("event %d: DC %d server %d members differ", k, i, srv)
			}
		}
	}
}

// twinLog is the replay log with declared flows on every arrival (to
// residents, departed and never-placed ids, itself and a negative id),
// two DC outages, and every other observation delivered again: once as it
// was, once with its volumes thinned and reordered and a few profiles
// moved.
func twinLog(t *testing.T) (*sim.Scenario, []Event) {
	sc := testScenario(t, 0.01)
	base := EventsFromTrace(sc.Workload, 12, sim.DefaultProfileSamples)
	sched := fault.Compile(fault.Config{Outages: []fault.Outage{
		{Kind: fault.KindDC, DC: 1, Start: 3, Slots: 3},
		{Kind: fault.KindDC, DC: 2, Start: 7, Slots: 2},
	}}, len(sc.Fleet), 12, sc.Seed)
	base = InsertFaults(base, sched.DCTransitions())
	var events []Event
	var placed []int
	nObs := 0
	for k, ev := range base {
		switch ev.Kind {
		case EvPlace:
			vm := ev.VM
			for i, q := range []int{k % 7, vm.ID, -3, vm.ID + 5000} {
				if i == 0 && len(placed) > 0 {
					q = placed[(k*31)%len(placed)]
				}
				vm.Flows = append(vm.Flows, Flow{Peer: q, ToPeer: units.DataSize(k%5) * 10, FromPeer: units.DataSize(i) * 7})
			}
			placed = append(placed, vm.ID)
			ev.VM = vm
			events = append(events, ev)
		case EvObserve:
			events = append(events, ev)
			if nObs++; nObs%2 == 0 {
				events = append(events, ev)
				o := ev.Obs
				var vols []VolumeObs
				for i, ve := range o.Volumes {
					if i%5 != 0 {
						vols = append(vols, ve)
					}
				}
				slices.Reverse(vols[:len(vols)/3])
				o.Volumes = vols
				o.VMs = slices.Clone(o.VMs)
				for i := 0; i < len(o.VMs); i += 9 {
					o.VMs[i].Profile = testProfile(0.05 * float64(i%7))
				}
				events = append(events, Event{Kind: EvObserve, Obs: o})
			}
		default:
			events = append(events, ev)
		}
	}
	return sc, events
}

// TestObserveMatchesFullRebuild holds the incremental observation and the
// deferred packer rebuilds to the full rebuild and the eager packers, list
// for list and server for server after every event, with the same
// decisions.
func TestObserveMatchesFullRebuild(t *testing.T) {
	sc, events := twinLog(t)
	opt := Options{Fleet: sc.Fleet, Topo: sc.Topo, Seed: 7, ReconcileEvery: 32}
	a, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	b := oracleDaemon{bd}
	obs, faults := 0, 0
	for k := range events {
		ev := &events[k]
		var got Decision
		switch ev.Kind {
		case EvPlace:
			got, _ = a.Place(ev.VM)
		case EvDepart:
			a.Depart(ev.ID)
		case EvObserve:
			a.Observe(ev.Obs)
			obs++
		case EvFault:
			a.Fault(ev.Fault.DC, ev.Fault.Down)
			faults++
		}
		want := b.apply(ev)
		if got.ID != want.ID || got.DC != want.DC || got.Server != want.Server || got.Overflowed != want.Overflowed || got.Seq != want.Seq {
			t.Fatalf("event %d: decision %+v, oracle %+v", k, got, want)
		}
		a.mu.Lock()
		b.mu.Lock()
		sameState(t, k, a.st, b.st, ev.Kind == EvObserve)
		b.mu.Unlock()
		a.mu.Unlock()
	}
	if obs < 10 || faults != 4 {
		t.Fatalf("degenerate log: %d observations, %d faults", obs, faults)
	}
	snap := a.Board().Snapshot()
	if snap.Counters["serve_observe_lists_total"] == 0 || snap.Counters["serve_tracker_rebuilds_total"] == 0 {
		t.Fatalf("counters not published: %v", snap.Counters)
	}
}

// replayDigest is TestReplayDigest's hash: every decision's (ID, DC,
// Server, Seq, Overflowed) in event order, then every resident's id and
// position bits in ascending id order.
func replayDigest(d *Daemon, decs []Decision) string {
	h := sha256.New()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for _, dec := range decs {
		put(uint64(dec.ID))
		put(uint64(dec.DC))
		put(uint64(dec.Server))
		put(dec.Seq)
		if dec.Overflowed {
			put(1)
		} else {
			put(0)
		}
	}
	for _, id := range d.Residents() {
		p := d.st.pos[id]
		put(uint64(id))
		put(math.Float64bits(p.X))
		put(math.Float64bits(p.Y))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestServeOpenLogMatchesEager replays the serve-open benchmark's own log
// (geo5dc-dynamic at 8 %, four days, the profiles it carries) and holds
// its decision and position digest to the eager oracles'.
func TestServeOpenLogMatchesEager(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a 12k-event log twice")
	}
	spec, err := config.Preset("geo5dc-dynamic")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale, spec.Seed, spec.Horizon = 0.08, 43, timeutil.Days(4)
	sc, err := config.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	events := EventsFromTrace(sc.Workload, spec.Horizon.Slots, sc.ProfileSamples)
	opt := Options{Fleet: sc.Fleet, Topo: sc.Topo, Seed: sc.Seed}

	a, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	got := replayDigest(a, a.Replay(events, 2))
	a.Drain()

	bd, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	b := oracleDaemon{bd}
	decs := make([]Decision, len(events))
	for k := range events {
		decs[k] = b.apply(&events[k])
	}
	bd.Drain()
	if want := replayDigest(bd, decs); got != want {
		t.Fatalf("serve-open log: digest %s, eager oracles %s", got, want)
	}
	snap := a.Board().Snapshot().Counters
	departs, rebuilds := snap["serve_departures_total"], snap["serve_tracker_rebuilds_total"]
	if departs < 1000 || 5*rebuilds > departs {
		t.Fatalf("%d deferred rebuilds for %d departures, want at most a fifth", rebuilds, departs)
	}
	t.Logf("%d events, %d departures, %d rebuilds, %d lists recomputed over %d observations",
		len(events), departs, rebuilds, snap["serve_observe_lists_total"], snap["serve_observations_total"])
}
