package serve

import (
	"slices"

	"geovmp/internal/alloc"
	"geovmp/internal/core"
	"geovmp/internal/correlation"
	"geovmp/internal/embed"
	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

// state is the daemon's world: the incremental correlation state (profile
// set, volume matrix, data adjacency), the embedding layout, and per-DC
// residency and packing.
//
// Per-VM state lives in dense tables indexed by id, as the profile set and
// volume matrix already do: ids are compact (the wire caps them at
// MaxWireID), so a table load replaces a map probe on every hot path. The
// residency tables (pos, dcOf, srvOf, actPos) reach only past the largest
// id ever resident; dcAt guards reads beyond them.
type state struct {
	opt  *Options
	slot timeutil.Slot

	// Correlation state, amended per arrival/departure/observation. ref is
	// the attraction normalization volume (the matrix mean), cached so the
	// per-arrival force field costs O(1) to assemble.
	ps    *correlation.ProfileSet
	dm    *correlation.DataMatrix
	ref   units.DataSize
	peers [][]int // indexed by id: data adjacency, both directions, dedup

	// The observation's change tracking: relist holds, once each, the ids
	// whose adjacency list link edited since the last observation (relistAt
	// is indexed by id: 1 + its index in relist, or 0); diff is the volume
	// refill's report and scratch; sendOff and senders are scratch.
	relist   []int
	relistAt []int32
	diff     correlation.RowDiff
	sendOff  []int32
	senders  []int

	// Embedding layout (indexed by id, meaningful where resident) and
	// per-DC centroid accumulators (posSum/resCount), maintained
	// incrementally so the locality score never scans the fleet. refPeers
	// is commit's scratch list of an arrival's resident peers.
	pos      []embed.Point
	posSum   []embed.Point
	resCount []int
	refPeers []int

	// Residency: VM -> (dc, server), per-DC incremental packers, and the
	// active list in commit order (swap-removal keeps it deterministic).
	dcOf   []int // indexed by id: DC, or -1 when not resident
	srvOf  []int // indexed by id, where resident
	packs  []*alloc.Tracker
	active []int
	actPos []int // indexed by id: index in active, where resident

	// dcDown marks DCs taken out by fault events: no admissions, and
	// residents are re-seated onto healthy DCs at the fault's turn.
	dcDown []bool

	// Per-slot tariff snapshot for the energy score term.
	prices   []units.Price
	maxPrice units.Price
	propNorm float64 // max pairwise propagation delay, for cross-DC weights
}

func newState(opt *Options) *state {
	n := len(opt.Fleet)
	s := &state{
		opt:      opt,
		ps:       correlation.NewProfileSet(opt.Samples),
		dm:       correlation.NewDataMatrix(),
		posSum:   make([]embed.Point, n),
		resCount: make([]int, n),
		packs:    make([]*alloc.Tracker, n),
		dcDown:   make([]bool, n),
		prices:   make([]units.Price, n),
	}
	for i, d := range opt.Fleet {
		s.packs[i] = alloc.NewTracker(d.Model, d.Servers, opt.Samples, s.ps.Profile)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if p := opt.Topo.PropagationDelay(i, j); p > s.propNorm {
				s.propNorm = p
			}
		}
	}
	s.refreshPrices()
	return s
}

// grown returns t extended to cover indices below n, new entries set to
// fill. It grows geometrically, so an ascending id stream copies t O(log n)
// times.
func grown[T any](t []T, n int, fill T) []T {
	if n <= len(t) {
		return t
	}
	old, m := len(t), max(n, 2*len(t))
	t = slices.Grow(t, m-old)[:m]
	for i := old; i < m; i++ {
		t[i] = fill
	}
	return t
}

// growResidency extends the residency tables (pos, dcOf, srvOf, actPos) and
// the adjacency to cover id. Only commit calls it, so an id that is merely
// named (a flow peer, an observed volume's endpoint) costs its adjacency
// entry and no residency.
func (s *state) growResidency(id int) {
	s.peers = grown(s.peers, id+1, nil)
	s.pos = grown(s.pos, id+1, embed.Point{})
	s.dcOf = grown(s.dcOf, id+1, -1)
	s.srvOf = grown(s.srvOf, id+1, 0)
	s.actPos = grown(s.actPos, id+1, 0)
}

// rebuilds returns how many deferred rebuilds the packers have run.
func (s *state) rebuilds() int {
	n := 0
	for _, tr := range s.packs {
		n += tr.Rebuilds()
	}
	return n
}

// peersOf returns id's data adjacency (nil beyond the tables).
func (s *state) peersOf(id int) []int {
	if id < 0 || id >= len(s.peers) {
		return nil
	}
	return s.peers[id]
}

func (s *state) refreshPrices() {
	s.maxPrice = 0
	for i, d := range s.opt.Fleet {
		s.prices[i] = d.Tariff.AtSlot(s.slot)
		if s.prices[i] > s.maxPrice {
			s.maxPrice = s.prices[i]
		}
	}
}

// peerEntry is one data peer of an arriving VM: its bidirectional volume
// with the VM and its current DC (-1 when not resident).
type peerEntry struct {
	id  int
	vol float64
	dc  int
}

// candidate is a prepared (fit+score) decision awaiting commit.
type candidate struct {
	dc, srv    int
	prof       []float64 // normalized to Options.Samples
	seed       embed.Point
	overflowed bool
}

// prepare runs the fit and score phases against the current state without
// mutating anything: a bounded capacity probe per DC, then the blended
// cross-traffic/locality/correlation/energy score over the feasible DCs.
// When no DC fits, the least-loaded DC's spill server is chosen and the
// decision is flagged overflowed.
func (s *state) prepare(vm *VM) (candidate, error) {
	if vm.ID < 0 {
		return candidate{}, ErrBadID
	}
	if !finiteNonNegative(vm.Profile...) {
		return candidate{}, ErrBadProfile
	}
	if s.dcAt(vm.ID) >= 0 {
		return candidate{}, ErrAlreadyPlaced
	}
	prof := normalizeProfile(vm.Profile, s.opt.Samples)
	peers := s.peerEntries(vm)
	seed := s.seedPos(vm.ID, peers)

	n := len(s.packs)
	srvs := make([]int, n)
	feas := make([]bool, n)
	anyFit := false
	for i, tr := range s.packs {
		if s.dcDown[i] {
			continue // a down DC admits nothing
		}
		srv, _, ok := tr.Probe(prof)
		srvs[i], feas[i] = srv, ok
		anyFit = anyFit || ok
	}
	if !anyFit {
		best := s.leastLoadedUp()
		return candidate{dc: best, srv: s.packs[best].Overflow(), prof: prof, seed: seed, overflowed: true}, nil
	}

	// Locality: distance from the VM's seed position to each DC's resident
	// centroid, normalized by the farthest one; empty DCs score neutral.
	dist := make([]float64, n)
	maxd := 0.0
	for i := 0; i < n; i++ {
		if s.resCount[i] == 0 {
			dist[i] = -1
			continue
		}
		c := embed.Point{
			X: s.posSum[i].X / float64(s.resCount[i]),
			Y: s.posSum[i].Y / float64(s.resCount[i]),
		}
		dist[i] = embed.Dist(seed, c)
		if dist[i] > maxd {
			maxd = dist[i]
		}
	}

	best := -1
	var bestScore float64
	for i := 0; i < n; i++ {
		if !feas[i] {
			continue
		}
		loc := 0.5
		if dist[i] >= 0 {
			loc = 0
			if maxd > 0 {
				loc = dist[i] / maxd
			}
		}
		sc := s.opt.Alpha*(0.7*s.crossTerm(i, peers)+0.3*loc) +
			(1-s.opt.Alpha)*s.corrTerm(i, srvs[i], prof) +
			energyWeight*s.energyTerm(i)
		if best < 0 || sc < bestScore {
			best, bestScore = i, sc
		}
	}
	return candidate{dc: best, srv: srvs[best], prof: prof, seed: seed}, nil
}

// leastLoadedUp picks the least-loaded healthy DC (smallest index on ties);
// with the whole fleet down it degrades to the least-loaded DC overall so an
// arrival always has a seat to overflow onto.
func (s *state) leastLoadedUp() int {
	return leastLoaded(s.dcDown, func(i int) float64 { return s.packs[i].UsedFrac() })
}

// leastLoaded is leastLoadedUp over DC loads used(i), in one scan that
// keeps the best healthy DC and the best DC overall. A NaN load never
// compares less, so it keeps a seat only as the first candidate.
func leastLoaded(down []bool, used func(i int) float64) int {
	up, all := -1, -1
	var bu, ba float64
	for i := range down {
		u := used(i)
		if all < 0 || u < ba {
			all, ba = i, u
		}
		if !down[i] && (up < 0 || u < bu) {
			up, bu = i, u
		}
	}
	if up >= 0 {
		return up
	}
	return all
}

// setFault flips one DC's availability. Taking a DC down re-seats its
// residents in ascending-id order onto the least-loaded healthy DC that
// fits them (overflowing when none does), keeping the correlation state and
// embedding positions intact — only residency and packing move. The
// returned slice lists the re-placed ids.
func (s *state) setFault(dcI int, down bool) []int {
	if dcI < 0 || dcI >= len(s.packs) || s.dcDown[dcI] == down {
		return nil
	}
	s.dcDown[dcI] = down
	if !down {
		return nil
	}
	var ids []int
	for id, d := range s.dcOf {
		if d == dcI {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		s.reseat(id)
	}
	return ids
}

// reseat moves one resident off its (down) DC: detach from the packer and
// centroid accumulators, then re-admit through the probe path restricted to
// healthy DCs. With the whole fleet down the VM stays stranded in place.
func (s *state) reseat(id int) {
	from := s.dcOf[id]
	if !slices.Contains(s.dcDown, false) {
		return
	}
	srv := s.srvOf[id]
	s.packs[from].Remove(srv, id)
	prof := s.ps.Profile(id)

	to, tsrv := -1, 0
	var bu float64
	for i, tr := range s.packs {
		if s.dcDown[i] {
			continue
		}
		if sv, _, ok := tr.Probe(prof); ok {
			if u := tr.UsedFrac(); to < 0 || u < bu {
				to, tsrv, bu = i, sv, u
			}
		}
	}
	if to < 0 {
		to = s.leastLoadedUp()
		tsrv = s.packs[to].Overflow()
	}
	s.packs[to].Commit(tsrv, id, prof)
	s.dcOf[id] = to
	s.srvOf[id] = tsrv
	p := s.pos[id]
	s.posSum[from].X -= p.X
	s.posSum[from].Y -= p.Y
	s.resCount[from]--
	s.posSum[to].X += p.X
	s.posSum[to].Y += p.Y
	s.resCount[to]++
}

// corrSampleCap bounds the residents examined by the per-server correlation
// score, keeping the score O(1) as servers fill.
const corrSampleCap = 32

// corrTerm scores peak coincidence between the arriving profile and the
// candidate server's residents (the paper's Eq. 5 repulsion, evaluated
// against the VMs the arrival would actually share hardware with). Empty
// servers are neutral.
func (s *state) corrTerm(dcI, srv int, prof []float64) float64 {
	members := s.packs[dcI].Members(srv)
	if len(members) == 0 {
		return 0.5
	}
	m := len(members)
	if m > corrSampleCap {
		m = corrSampleCap
	}
	var sum float64
	for k := 0; k < m; k++ {
		sum += correlation.PeakCoincidence(prof, s.ps.Profile(members[k]))
	}
	return sum / float64(m)
}

// crossTerm scores the traffic the VM would send across DC boundaries:
// volume-weighted link badness over the VM's placed peers (0 intra-DC,
// 0.5..1 scaling with propagation delay). No placed peers is neutral.
func (s *state) crossTerm(dcI int, peers []peerEntry) float64 {
	var tot, num float64
	for _, p := range peers {
		if p.dc < 0 || p.vol <= 0 {
			continue
		}
		tot += p.vol
		if p.dc != dcI {
			w := 0.5
			if s.propNorm > 0 {
				w += 0.5 * s.opt.Topo.PropagationDelay(dcI, p.dc) / s.propNorm
			}
			num += p.vol * w
		}
	}
	if tot <= 0 {
		return 0.5
	}
	return num / tot
}

// energyTerm scores a DC's current energy cost: its grid tariff relative to
// the fleet's priciest, blended with its load fraction (fuller fleets run
// servers at worse efficiency and leave less green headroom).
func (s *state) energyTerm(dcI int) float64 {
	var pf float64
	if s.maxPrice > 0 {
		pf = float64(s.prices[dcI]) / float64(s.maxPrice)
	}
	uf := s.packs[dcI].UsedFrac()
	if uf > 1 {
		uf = 1
	}
	return 0.5*pf + 0.5*uf
}

// peerEntries collects the VM's data peers: the adjacency already recorded
// in the volume matrix plus the arrival's declared flows, deduplicated.
func (s *state) peerEntries(vm *VM) []peerEntry {
	var out []peerEntry
	for _, q := range s.peersOf(vm.ID) {
		out = append(out, peerEntry{id: q, vol: float64(s.dm.TotalBetween(vm.ID, q)), dc: s.dcAt(q)})
	}
	for _, fl := range vm.Flows {
		v := float64(fl.ToPeer + fl.FromPeer)
		found := false
		for k := range out {
			if out[k].id == fl.Peer {
				out[k].vol += v
				found = true
				break
			}
		}
		if !found {
			out = append(out, peerEntry{id: fl.Peer, vol: v, dc: s.dcAt(fl.Peer)})
		}
	}
	return out
}

// dcAt returns id's DC, or -1 when it is not resident.
func (s *state) dcAt(id int) int {
	if id < 0 || id >= len(s.dcOf) {
		return -1
	}
	return s.dcOf[id]
}

// seedPos seeds an arrival at the centroid of its placed data peers with a
// small deterministic jitter — the batch controller's rule for first-seen
// VMs — falling back to the deterministic scatter.
func (s *state) seedPos(id int, peers []peerEntry) embed.Point {
	var cx, cy float64
	known := 0
	for _, p := range peers {
		if p.dc >= 0 {
			q := s.pos[p.id]
			cx += q.X
			cy += q.Y
			known++
		}
	}
	if known == 0 {
		return embed.InitialPosition(id, embed.InitRadius, s.opt.Seed)
	}
	jit := embed.InitialPosition(id, 0.5, s.opt.Seed)
	return embed.Point{X: cx/float64(known) + jit.X, Y: cy/float64(known) + jit.Y}
}

// commit is the reserve phase: apply a prepared decision. Correlation state
// first (the refinement field reads it), then the embedding seat — the seed
// position refined against the frozen layout and the arrival's data peers —
// then residency. Cost is O(profile + degree + refineIters x (degree +
// SampleK)), independent of fleet size.
func (s *state) commit(vm *VM, c candidate) Decision {
	id := vm.ID
	s.growResidency(id)
	s.ps.Add(id, c.prof)
	if len(vm.Flows) > 0 {
		for _, fl := range vm.Flows {
			if fl.ToPeer > 0 {
				s.dm.Add(id, fl.Peer, fl.ToPeer)
				s.link(id, fl.Peer)
			}
			if fl.FromPeer > 0 {
				s.dm.Add(fl.Peer, id, fl.FromPeer)
				s.link(id, fl.Peer)
			}
		}
		s.ref = s.dm.Mean()
	}
	// Only resident peers have a seat to pull toward; id is not resident yet.
	s.refPeers = s.refPeers[:0]
	for _, q := range s.peers[id] {
		if s.dcAt(q) >= 0 {
			s.refPeers = append(s.refPeers, q)
		}
	}
	f := core.NewField(s.opt.Alpha, s.ps, s.dm, s.ref)
	p := embed.RefineOne(id, c.seed, s.refPeers, s.active, s.pos, f, embed.Config{Seed: s.opt.Seed, MaxIters: refineIters})
	s.pos[id] = p
	s.packs[c.dc].Commit(c.srv, id, c.prof)
	s.dcOf[id] = c.dc
	s.srvOf[id] = c.srv
	s.actPos[id] = len(s.active)
	s.active = append(s.active, id)
	s.posSum[c.dc].X += p.X
	s.posSum[c.dc].Y += p.Y
	s.resCount[c.dc]++
	return Decision{ID: id, DC: c.dc, Server: c.srv, Overflowed: c.overflowed}
}

// depart removes a resident VM, amending every structure the arrival built.
// The volume matrix drops the pairs of id's adjacency without scanning the
// others.
func (s *state) depart(id int) bool {
	dcI := s.dcAt(id)
	if dcI < 0 {
		return false
	}
	srv := s.srvOf[id]
	s.packs[dcI].Remove(srv, id)
	s.ps.Remove(id)
	if peers := s.peers[id]; len(peers) > 0 {
		s.dm.RemoveVM(id, peers)
		s.unlink(id)
		s.ref = s.dm.Mean()
	}
	p := s.pos[id]
	s.posSum[dcI].X -= p.X
	s.posSum[dcI].Y -= p.Y
	s.resCount[dcI]--
	s.dcOf[id] = -1
	k := s.actPos[id]
	last := s.active[len(s.active)-1]
	s.active[k] = last
	s.actPos[last] = k
	s.active = s.active[:len(s.active)-1]
	return true
}

// observe applies one telemetry refresh: every observed profile is
// re-added and every server rebuilt from current profiles; the volume
// matrix is refilled in place, restructuring only the rows whose pairs
// moved; and the adjacency lists are recomputed only for the ids those
// rows and pairs name and the ids arrivals linked since the last
// observation. Every structure ends as a full rebuild from the observation
// would leave it. It returns how many adjacency lists it recomputed.
func (s *state) observe(o *Observation) int {
	if o.Slot != s.slot {
		s.slot = o.Slot
		s.refreshPrices()
	}
	row := make([]float64, s.opt.Samples) // Add copies rows: one scratch row serves every VM
	for _, v := range o.VMs {
		prof := v.Profile
		if len(prof) != len(row) {
			clear(row[copy(row, prof):])
			prof = row
		}
		s.ps.Add(v.ID, prof)
	}
	vols := o.Volumes
	s.dm.Refill(len(vols), func(k int) (int, int, units.DataSize) {
		return vols[k].From, vols[k].To, vols[k].Vol
	}, &s.diff)
	s.ref = s.dm.Mean()
	lists := s.relistPeers(vols)
	for _, tr := range s.packs {
		tr.RebuildAll()
	}
	return lists
}

// relistPeers recomputes the adjacency lists the last refill, of vols, can
// have changed — those of the senders whose rows moved and of both ends of
// every pair gained or lost — and those link edited, by the
// first-encounter rule correlation.Adjacency documents
// (DataMatrix.Partners). Every other list already holds that rule's
// answer: its id's row and senders are as they were at the last
// observation, less any departed partner. It returns how many lists it
// recomputed.
func (s *state) relistPeers(vols []VolumeObs) int {
	for _, from := range s.diff.Senders {
		s.markRelist(from)
	}
	for _, to := range s.diff.Receivers {
		s.markRelist(to)
	}
	// The matrix holds exactly the pairs of vols that it stores, so one
	// pass over them finds every queued id's senders. Bucket them by
	// receiver, in relist order: senders[sendOff[i]:sendOff[i+1]] are
	// relist[i]'s.
	n := len(s.relist)
	s.sendOff = append(s.sendOff[:0], make([]int32, n+1)...)
	queued := func(v *VolumeObs) int32 {
		if !correlation.Stores(v.From, v.To, v.Vol) || v.To >= len(s.relistAt) {
			return 0
		}
		return s.relistAt[v.To]
	}
	for k := range vols {
		s.sendOff[queued(&vols[k])]++
	}
	s.sendOff[0] = 0
	for i := 0; i < n; i++ {
		s.sendOff[i+1] += s.sendOff[i]
	}
	s.senders = slices.Grow(s.senders[:0], int(s.sendOff[n]))[:s.sendOff[n]]
	for k := range vols {
		if i := queued(&vols[k]); i > 0 {
			s.senders[s.sendOff[i-1]] = vols[k].From
			s.sendOff[i-1]++
		}
	}
	lo := int32(0)
	for i, id := range s.relist {
		hi := s.sendOff[i]
		s.peers[id] = s.dm.Partners(s.peers[id][:0], id, s.senders[lo:hi])
		s.relistAt[id] = 0
		lo = hi
	}
	s.relist = s.relist[:0]
	return n
}

// markRelist queues id's adjacency list for the next observation's
// recomputation.
func (s *state) markRelist(id int) {
	s.peers = grown(s.peers, id+1, nil)
	s.relistAt = grown(s.relistAt, id+1, 0)
	if s.relistAt[id] == 0 {
		s.relist = append(s.relist, id)
		s.relistAt[id] = int32(len(s.relist))
	}
}

// link registers a data pair in the adjacency (both directions, dedup) —
// the incremental counterpart of the batch field's derivation. A negative
// peer holds no volume and no seat, so it is not recorded.
func (s *state) link(a, b int) {
	if b < 0 {
		return
	}
	s.markRelist(a)
	s.markRelist(b)
	if !slices.Contains(s.peers[a], b) {
		s.peers[a] = append(s.peers[a], b)
	}
	if !slices.Contains(s.peers[b], a) {
		s.peers[b] = append(s.peers[b], a)
	}
}

// unlink removes id from the adjacency entirely. The next observation
// need not recompute the lists it edits: removing every occurrence of id
// from the sequences the first-encounter rule merges leaves the other
// partners' first occurrences in their order, so each edited list is still
// the rule's answer over the matrix RemoveVM leaves.
func (s *state) unlink(id int) {
	for _, q := range s.peers[id] {
		l := s.peers[q]
		w := 0
		for _, x := range l {
			if x != id {
				l[w] = x
				w++
			}
		}
		if w == 0 {
			s.peers[q] = nil
		} else {
			s.peers[q] = l[:w]
		}
	}
	s.peers[id] = nil
}

// normalizeProfile fits a profile to the daemon's sample count: returned
// as-is when it already matches (ProfileSet.Add copies rows into its
// arena), truncated or zero-padded otherwise: the set takes rows of exactly
// its sample count.
func normalizeProfile(prof []float64, samples int) []float64 {
	if len(prof) == samples {
		return prof
	}
	out := make([]float64, samples)
	copy(out, prof)
	return out
}
