package alloc

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"geovmp/internal/power"
)

// eagerTracker is Tracker as it was before departures deferred their
// rebuilds: Remove rebuilds the server's aggregate and applies the cursor
// rule on the spot. It is the reference the deferred tracker must match at
// every read.
type eagerTracker struct {
	capTop     float64
	samples    int
	maxServers int
	probeLimit int
	cursor     int
	servers    []trackedServer
}

func (t *eagerTracker) packed(srv int) bool {
	return t.capTop-t.servers[srv].peak < packedFrac*t.capTop
}

func (t *eagerTracker) advance() {
	for t.cursor < len(t.servers) && t.packed(t.cursor) {
		t.cursor++
	}
}

func (t *eagerTracker) UsedFrac() float64 {
	if t.maxServers <= 0 || t.capTop <= 0 {
		return 0
	}
	var used float64
	for i := range t.servers {
		used += t.servers[i].peak
	}
	return used / (float64(t.maxServers) * t.capTop)
}

func (t *eagerTracker) Probe(prof []float64) (int, float64, bool) {
	end := min(t.cursor+t.probeLimit, len(t.servers))
	cut := prof[:min(len(prof), t.samples)]
	limit := t.capTop + 1e-9
	for s := t.cursor; s < end; s++ {
		srv := &t.servers[s]
		if hotRejects(srv.aggregate, srv.hot, cut, limit) {
			continue
		}
		p := max(combinedPeak(srv.aggregate, cut), srv.peak)
		if p <= limit {
			return s, p, true
		}
	}
	if len(t.servers) < t.maxServers {
		var peak float64
		for _, u := range prof {
			if u > peak {
				peak = u
			}
		}
		return len(t.servers), peak, true
	}
	return -1, 0, false
}

func (t *eagerTracker) Overflow() int {
	best := 0
	for s := 1; s < len(t.servers); s++ {
		if t.servers[s].peak < t.servers[best].peak {
			best = s
		}
	}
	return best
}

func (t *eagerTracker) Commit(srv, id int, prof []float64) {
	for srv >= len(t.servers) {
		t.servers = append(t.servers, trackedServer{aggregate: make([]float64, t.samples)})
	}
	s := &t.servers[srv]
	s.members = append(s.members, id)
	for i := 0; i < min(len(prof), t.samples); i++ {
		s.aggregate[i] += prof[i]
	}
	s.peak, s.hot = selfPeak(s.aggregate)
	t.advance()
}

func (t *eagerTracker) Remove(srv, id int, profile func(id int) []float64) bool {
	if srv < 0 || srv >= len(t.servers) {
		return false
	}
	s := &t.servers[srv]
	k := slices.Index(s.members, id)
	if k < 0 {
		return false
	}
	s.members = slices.Delete(s.members, k, k+1)
	t.rebuild(srv, profile)
	if srv < t.cursor && !t.packed(srv) {
		t.cursor = srv
	}
	return true
}

func (t *eagerTracker) rebuild(srv int, profile func(id int) []float64) {
	s := &t.servers[srv]
	clear(s.aggregate)
	for _, m := range s.members {
		prof := profile(m)
		for i := 0; i < min(len(prof), t.samples); i++ {
			s.aggregate[i] += prof[i]
		}
	}
	s.peak, s.hot = selfPeak(s.aggregate)
}

func (t *eagerTracker) RebuildAll(profile func(id int) []float64) {
	for srv := range t.servers {
		t.rebuild(srv, profile)
	}
	t.cursor = 0
	t.advance()
}

// sameTracker compares the deferred tracker, right after a read, with the
// eager one field for field: cursor, and per server the members, the
// aggregate's bits, the peak's bits and the hot index.
func sameTracker(t *testing.T, step int, lazy *Tracker, eager *eagerTracker) {
	t.Helper()
	if len(lazy.stale) != 0 {
		t.Fatalf("step %d: %d stale servers after a read", step, len(lazy.stale))
	}
	if lazy.cursor != eager.cursor || len(lazy.servers) != len(eager.servers) {
		t.Fatalf("step %d: cursor %d over %d servers, eager %d over %d",
			step, lazy.cursor, len(lazy.servers), eager.cursor, len(eager.servers))
	}
	for i := range lazy.servers {
		a, b := &lazy.servers[i], &eager.servers[i]
		if !slices.Equal(a.members, b.members) {
			t.Fatalf("step %d server %d: members %v, eager %v", step, i, a.members, b.members)
		}
		if math.Float64bits(a.peak) != math.Float64bits(b.peak) || a.hot != b.hot {
			t.Fatalf("step %d server %d: peak %v hot %d, eager %v hot %d", step, i, a.peak, a.hot, b.peak, b.hot)
		}
		for k := range a.aggregate {
			if math.Float64bits(a.aggregate[k]) != math.Float64bits(b.aggregate[k]) {
				t.Fatalf("step %d server %d sample %d: %v, eager %v", step, i, k, a.aggregate[k], b.aggregate[k])
			}
		}
	}
}

// twinSamples are the special values a dirty profile mixes in, the finite
// ones as fractions of capacity: the edges of the tracker's non-negative
// domain. The zero entries make rows of zeros common.
var twinSamples = []float64{0, 0, 0, math.Inf(1), math.Copysign(0, -1), 1e-300, 1e300}

// runTwin drives a deferred and an eager tracker through the same
// Commit/Remove/Probe/Overflow/UsedFrac/RebuildAll sequence,
// read from next (0 once a finite stream is exhausted), and compares them
// after every read.
func runTwin(t *testing.T, next func() byte, steps int) {
	m := power.E5410()
	samples := []int{1, 2, 5, 12}[next()%4]
	maxServers := 1 + int(next()%24)
	probeLimit := 1 + int(next()%16)
	dirty := next()%2 == 0
	profs := map[int][]float64{}
	profile := func(id int) []float64 { return profs[id] }
	lazy := NewTracker(m, maxServers, samples, profile)
	lazy.probeLimit = probeLimit
	eager := &eagerTracker{capTop: m.MaxCapacity(), samples: samples, maxServers: maxServers, probeLimit: probeLimit}

	where := map[int]int{}
	var resident []int
	draw := func() []float64 {
		n := samples
		switch next() % 8 {
		case 0:
			n = int(next()) % samples
		case 1:
			n = samples + 1 + int(next()%3)
		case 2:
			return make([]float64, n) // a zero row
		}
		row := make([]float64, n)
		for i := range row {
			b := next()
			if dirty && b%9 == 0 {
				row[i] = twinSamples[int(b/9)%len(twinSamples)] * m.MaxCapacity()
				continue
			}
			row[i] = float64(b%10) / 8 * m.MaxCapacity() // eighths: servers fill exactly
		}
		return row
	}
	read := func(step int) {
		switch next() % 3 {
		case 0:
			if a, b := lazy.UsedFrac(), eager.UsedFrac(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("step %d: UsedFrac %v, eager %v", step, a, b)
			}
		case 1:
			if a, b := lazy.Overflow(), eager.Overflow(); a != b {
				t.Fatalf("step %d: Overflow %d, eager %d", step, a, b)
			}
		default:
			prof := draw()
			s1, p1, ok1 := lazy.Probe(prof)
			s2, p2, ok2 := eager.Probe(prof)
			if s1 != s2 || ok1 != ok2 || math.Float64bits(p1) != math.Float64bits(p2) {
				t.Fatalf("step %d: Probe (%d, %v, %v), eager (%d, %v, %v)", step, s1, p1, ok1, s2, p2, ok2)
			}
		}
		sameTracker(t, step, lazy, eager)
	}
	id := 0
	for step := 0; step < steps; step++ {
		switch op := next() % 16; {
		case op < 6 && len(resident) > 0:
			k := int(next()) % len(resident)
			gone := resident[k]
			resident = slices.Delete(resident, k, k+1)
			if !lazy.Remove(where[gone], gone) || !eager.Remove(where[gone], gone, profile) {
				t.Fatalf("step %d: remove %d failed", step, gone)
			}
			if lazy.Remove(where[gone], gone) {
				t.Fatalf("step %d: second remove of %d succeeded", step, gone)
			}
			delete(profs, gone)
		case op < 9:
			read(step)
		case op == 9:
			// A telemetry refresh that moves some residents' profiles.
			for _, v := range resident {
				if next()%3 == 0 {
					profs[v] = draw()
				}
			}
			lazy.RebuildAll()
			eager.RebuildAll(profile)
			sameTracker(t, step, lazy, eager)
		default:
			prof := draw()
			srv, _, ok := lazy.Probe(prof)
			if !ok {
				srv = lazy.Overflow()
			}
			esrv, _, eok := eager.Probe(prof)
			if !eok {
				esrv = eager.Overflow()
			}
			if srv != esrv {
				t.Fatalf("step %d: seat %d, eager %d", step, srv, esrv)
			}
			profs[id] = prof
			where[id] = srv
			resident = append(resident, id)
			lazy.Commit(srv, id, prof)
			eager.Commit(srv, id, prof)
			sameTracker(t, step, lazy, eager)
			id++
		}
	}
	read(steps)
	if lazy.Len() != len(resident) {
		t.Fatalf("Len %d, %d resident", lazy.Len(), len(resident))
	}
}

// TestTrackerDeferredMatchesEager holds the deferred rebuild to the eager
// one over random streams, clean and dirty (+Inf, -0, tiny and huge
// samples, zero rows, short and long rows).
func TestTrackerDeferredMatchesEager(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		runTwin(t, func() byte { return byte(r.Intn(256)) }, 1500)
	}
}

// TestTrackerDefersRebuilds pins the saving: departures between two reads
// rebuild each of their servers once, at the read.
func TestTrackerDefersRebuilds(t *testing.T) {
	m := power.E5410()
	profs := map[int][]float64{}
	profile := func(id int) []float64 { return profs[id] }
	tr := NewTracker(m, 4, 4, profile)
	for id := 0; id < 40; id++ {
		profs[id] = flat(0.01*m.MaxCapacity(), 4)
		srv, _, _ := tr.Probe(profs[id])
		tr.Commit(srv, id, profs[id])
	}
	for id := 0; id < 10; id++ {
		tr.Remove(0, id)
	}
	if n := tr.Rebuilds(); n != 0 {
		t.Fatalf("%d rebuilds before a read", n)
	}
	tr.UsedFrac()
	if n := tr.Rebuilds(); n != 1 {
		t.Fatalf("%d rebuilds after ten departures from one server and a read, want 1", n)
	}
	// The telemetry refresh rebuilds every server; it is not a deferred
	// rebuild.
	tr.RebuildAll()
	if n := tr.Rebuilds(); n != 1 {
		t.Fatalf("%d rebuilds after RebuildAll, want 1", n)
	}
}

func FuzzTrackerOps(f *testing.F) {
	f.Add([]byte{3, 5, 2, 0, 10, 10, 10, 1, 4, 200, 7, 9, 3, 3, 0, 1, 2})
	f.Add([]byte{0, 0, 0, 1})
	f.Add([]byte{2, 23, 15, 0, 12, 1, 90, 12, 2, 9, 18, 27, 0, 5, 3, 9, 1, 7, 6, 255, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		next := func() byte {
			if i >= len(data) {
				return 0
			}
			i++
			return data[i-1]
		}
		runTwin(t, next, 2*len(data))
	})
}
