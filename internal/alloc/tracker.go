package alloc

import (
	"slices"

	"geovmp/internal/power"
)

// Tracker is the incremental form of the correlation-aware packer: one DC's
// per-server aggregate profiles maintained across a stream of admissions and
// departures, so a serving path can answer "which server fits this VM" in
// O(probe window) work instead of repacking the DC from scratch.
//
// Admission uses the same combined-peak test as CorrelationAware — the
// candidate server's aggregate profile plus the VM's profile must peak under
// capacity — but the first-fit scan is bounded: a cursor marks the prefix of
// servers already packed tight (remaining gap below a small fraction of
// capacity), and each probe examines at most probeLimit servers past it.
// That trades a sliver of packing quality on the skipped servers for a
// per-arrival cost independent of how many servers the DC has accumulated;
// departures re-open the cursor, so space freed behind it is found again.
// Within the window the scan is hot-sample-first, as in CorrelationAware:
// each server keeps the index of its aggregate's largest sample (updated by
// Commit and every rebuild), and Probe passes over a server whose hot sum
// aggregate[t*] + prof[t*] already exceeds capacity without evaluating the
// full combined peak. That sum is one of the sums the combined peak
// maximizes, so the skip only passes over servers the full test rejects,
// and every Probe answer is the plain scan's.
//
// A departure does not rebuild its server's aggregate at once: it marks the
// server stale, and the exact rebuild runs once, at the tracker's next read
// (Probe, Commit, Overflow or UsedFrac) or at RebuildAll, however many
// departures the server saw in between. Each read therefore sees exactly
// the state that rebuilding at every departure would have left (see
// Remove), provided every profile's samples are non-negative (NaN is not):
// with a negative sample a departure could raise its server's peak and
// pack it again, which the deferred cursor rule does not see. The serving
// daemon refuses such profiles before they reach a tracker.
//
// All methods are pure functions of the call sequence: the same admissions
// and departures in the same order produce bit-identical placements at any
// concurrency of the caller's surrounding machinery.
type Tracker struct {
	capTop     float64
	samples    int
	maxServers int
	probeLimit int
	cursor     int // servers below this index are considered packed
	servers    []trackedServer
	profile    func(id int) []float64
	// stale lists the servers awaiting their rebuild, each once (its
	// trackedServer.stale is set).
	stale    []int
	rebuilds int
}

type trackedServer struct {
	members   []int
	aggregate []float64
	peak      float64 // combined peak of the aggregate profile
	hot       int     // index of the aggregate's largest sample
	stale     bool    // aggregate, peak and hot await a rebuild
}

// packedFrac: a server whose remaining gap (capacity minus aggregate peak)
// falls below this fraction of capacity is skipped by the bounded probe.
const packedFrac = 0.05

// defaultProbeLimit bounds the first-fit window: the serving daemon's one
// probe window.
const defaultProbeLimit = 16

// NewTracker returns an empty tracker for a DC of maxServers servers of the
// given model, expecting profiles of the given sample count. profile
// returns a resident's current profile; rebuilds read members' profiles
// through it. Its probe window is defaultProbeLimit; the package's tests
// narrow it by setting probeLimit directly.
func NewTracker(model *power.ServerModel, maxServers, samples int, profile func(id int) []float64) *Tracker {
	return &Tracker{
		capTop:     model.MaxCapacity(),
		samples:    samples,
		maxServers: maxServers,
		probeLimit: defaultProbeLimit,
		profile:    profile,
	}
}

// Rebuilds returns how many deferred rebuilds have run: server aggregates
// rebuilt at a read because departures left them stale.
func (t *Tracker) Rebuilds() int { return t.rebuilds }

// Members returns the VMs on server srv (nil for a not-yet-opened index).
// The slice is shared; callers must not modify it.
func (t *Tracker) Members(srv int) []int {
	if srv < 0 || srv >= len(t.servers) {
		return nil
	}
	return t.servers[srv].members
}

// UsedFrac returns the fleet-load proxy scoring uses: the sum of server
// admission peaks over the DC's total nominal capacity (0 when the DC has
// no servers; can exceed 1 under overflow).
func (t *Tracker) UsedFrac() float64 {
	t.flush()
	if t.maxServers <= 0 || t.capTop <= 0 {
		return 0
	}
	var used float64
	for i := range t.servers {
		used += t.servers[i].peak
	}
	return used / (float64(t.maxServers) * t.capTop)
}

// Probe finds a server for prof: the first server in the bounded window
// whose combined peak stays under capacity, else a fresh server while the
// budget allows. It mutates nothing. srv one past the last opened server
// means "open a new server" — Commit performs the open. ok is false when
// the DC is out of capacity; the caller then either rejects or places via
// Overflow.
func (t *Tracker) Probe(prof []float64) (srv int, peak float64, ok bool) {
	t.flush()
	end := t.cursor + t.probeLimit
	if end > len(t.servers) {
		end = len(t.servers)
	}
	cut := prof
	if len(cut) > t.samples {
		cut = cut[:t.samples]
	}
	limit := t.capTop + 1e-9
	for s := t.cursor; s < end; s++ {
		srv := &t.servers[s]
		if hotRejects(srv.aggregate, srv.hot, cut, limit) {
			continue
		}
		p := combinedPeak(srv.aggregate, cut)
		if p < srv.peak {
			// A profile shorter than the aggregate cannot lower the peak.
			p = srv.peak
		}
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

// Overflow returns the least-peaked server (ties to the lowest index), the
// same spill rule pack() uses when a DC is out of nominal capacity. With no
// servers open at all it returns 0 — dropping load silently is
// unacceptable, so Commit opens the server past budget and the caller flags
// the VM as overflowed. Callers Commit onto the returned server.
func (t *Tracker) Overflow() int {
	t.flush()
	if len(t.servers) == 0 {
		return 0
	}
	best := 0
	for s := 1; s < len(t.servers); s++ {
		if t.servers[s].peak < t.servers[best].peak {
			best = s
		}
	}
	return best
}

// Commit places id with profile prof on server srv (opening it when srv is
// one past the last opened server, as Probe returns) and advances the
// packed cursor past servers whose gap has closed.
func (t *Tracker) Commit(srv, id int, prof []float64) {
	t.flush()
	for srv >= len(t.servers) {
		t.servers = append(t.servers, trackedServer{aggregate: make([]float64, t.samples)})
	}
	s := &t.servers[srv]
	s.members = append(s.members, id)
	n := len(prof)
	if n > t.samples {
		n = t.samples
	}
	for i := 0; i < n; i++ {
		s.aggregate[i] += prof[i]
	}
	s.peak, s.hot = selfPeak(s.aggregate)
	t.advance()
}

// advance moves the cursor past the packed servers at it.
func (t *Tracker) advance() {
	for t.cursor < len(t.servers) && t.packed(t.cursor) {
		t.cursor++
	}
}

// packed reports whether server srv's remaining gap is below packedFrac of
// capacity.
func (t *Tracker) packed(srv int) bool {
	return t.capTop-t.servers[srv].peak < packedFrac*t.capTop
}

// Remove departs id from server srv and marks the server stale; its
// aggregate is rebuilt exactly from the remaining members' profiles
// (incremental subtraction would accumulate float drift) at the tracker's
// next read, which also re-opens the cursor at the lowest rebuilt server
// below it that is no longer packed. That is the cursor an eager rebuild at
// every departure would leave: the exact rebuild is a left fold, rounded
// addition is monotone, so removing a member whose samples are
// non-negative cannot raise the server's peak, and a server that is
// unpacked after some departure is still unpacked after the later ones.
// It reports whether id was found.
func (t *Tracker) Remove(srv, id int) bool {
	if srv < 0 || srv >= len(t.servers) {
		return false
	}
	s := &t.servers[srv]
	k := slices.Index(s.members, id)
	if k < 0 {
		return false
	}
	s.members = slices.Delete(s.members, k, k+1)
	if !s.stale {
		s.stale = true
		t.stale = append(t.stale, srv)
	}
	return true
}

// RebuildAll recomputes every server's aggregate from current profiles and
// resets the packed cursor: the telemetry-refresh path. It settles the
// departures' deferred rebuilds too, without counting them in Rebuilds.
func (t *Tracker) RebuildAll() {
	for srv := range t.servers {
		t.rebuild(srv)
	}
	t.stale = t.stale[:0]
	t.cursor = 0
	t.advance()
}

// flush runs the deferred rebuilds, re-opening the cursor at each rebuilt
// server behind it that is no longer packed.
func (t *Tracker) flush() {
	for _, srv := range t.stale {
		t.rebuild(srv)
		t.rebuilds++
		if srv < t.cursor && !t.packed(srv) {
			t.cursor = srv
		}
	}
	t.stale = t.stale[:0]
}

// rebuild recomputes one server's aggregate profile and peak from its
// members' current profiles.
func (t *Tracker) rebuild(srv int) {
	s := &t.servers[srv]
	for i := range s.aggregate {
		s.aggregate[i] = 0
	}
	for _, m := range s.members {
		prof := t.profile(m)
		n := len(prof)
		if n > t.samples {
			n = t.samples
		}
		for i := 0; i < n; i++ {
			s.aggregate[i] += prof[i]
		}
	}
	s.peak, s.hot = selfPeak(s.aggregate)
	s.stale = false
}
