package policy

import (
	"math"
	"slices"
	"strconv"

	"geovmp/internal/alloc"
	"geovmp/internal/correlation"
	"geovmp/internal/dc"
	"geovmp/internal/pareto"
	"geovmp/internal/rng"
	"geovmp/internal/units"
)

// ParetoSearch is the metaheuristic global phase the frontier compares the
// paper's controller against: a seeded multi-start local search over
// whole-fleet assignments that keeps an archive of non-dominated candidates
// — NSGA-II-lite, with the dominance archive but without the generational
// machinery. Each slot it scores candidate assignments on three slot-local
// surrogates, all minimized:
//
//   - paid energy cost: per DC, the predicted facility energy exceeding the
//     site's free sources (renewable forecast + usable battery), priced at
//     the current tariff — the placement-sensitive slice of Fig. 1;
//   - cross-DC traffic: last interval's inter-VM volumes crossing DC
//     boundaries — the Eq. 1 response-time driver;
//   - migration time: the summed transfer seconds of the moves the
//     candidate implies — the disruption budget.
//
// Starts perturb the incumbent placement and hill-climb under distinct
// objective weightings, the archive keeps the non-dominated endpoints, and
// the knee of that mini-front becomes the slot's placement (executed
// through the same per-link migration latency budget as every other
// policy). The search is deterministic in the construction seed: every
// random draw comes from a stream derived from (seed, slot).
type ParetoSearch struct {
	seed uint64
}

const (
	// searchStarts is the number of perturbed hill-climbs per slot. Each
	// start optimizes a different weighting of the three surrogates, so
	// the archive spans the slot's trade-off front.
	searchStarts = 4
	// searchSweeps is the number of improvement passes over the fleet per
	// start.
	searchSweeps = 2
	// searchPerturb is the fraction of VMs each start reassigns at random
	// before climbing; start 0 always climbs the unperturbed incumbent.
	searchPerturb float64 = 0.1
)

// NewParetoSearch returns the metaheuristic baseline. Construct a fresh
// instance per run, like every policy.
func NewParetoSearch(seed uint64) *ParetoSearch {
	return &ParetoSearch{seed: seed}
}

// Name implements Policy.
func (p *ParetoSearch) Name() string { return "Pareto-search" }

// Allocate implements Policy with the same correlation-aware local phase
// the proposed controller uses, so frontier comparisons isolate the global
// phase.
func (p *ParetoSearch) Allocate(d *dc.DC, ids []int, ps *correlation.ProfileSet) alloc.Result {
	return corrAwareAllocate(d, ids, ps)
}

// neighbor is one communication edge of the undirected exchange graph.
type neighbor struct {
	idx int     // local index of the peer VM
	vol float64 // bytes exchanged last interval, both directions
}

// searchState holds one slot's immutable search inputs plus the mutable
// incumbent assignment the climbs operate on.
type searchState struct {
	in     *Input
	ids    []int // ActiveVMs, ascending
	local  map[int]int
	demand []float64 // CPU demand per local idx
	energy []float64 // predicted J per local idx
	adj    [][]neighbor

	capCPU  []float64   // per-DC CPU capacity
	freeJ   []float64   // per-DC free energy (renewable + battery), J
	priceJ  []float64   // per-DC tariff, EUR per J
	migSecs [][]float64 // [local idx][dc] seconds to move there from current (0 when target is current or VM is new)

	assign []int     // current assignment per local idx
	cpu    []float64 // per-DC CPU load of assign
	joules []float64 // per-DC energy of assign
	cross  float64   // current cross-DC bytes
	mig    float64   // current migration seconds

	// scale makes the weighted objective sums unit-free. Derived from the
	// problem's magnitudes — total priced energy, total exchanged volume,
	// the slot's migration latency budget — never from a candidate's
	// current state: a start whose incumbent happens to score zero on one
	// objective must not treat any increase of it as infinitely expensive.
	scale [3]float64
}

func newSearchState(in *Input) *searchState {
	nDC := len(in.DCs)
	ids := in.ActiveVMs
	s := &searchState{
		in:      in,
		ids:     ids,
		local:   make(map[int]int, len(ids)),
		demand:  make([]float64, len(ids)),
		energy:  make([]float64, len(ids)),
		adj:     make([][]neighbor, len(ids)),
		capCPU:  make([]float64, nDC),
		freeJ:   make([]float64, nDC),
		priceJ:  make([]float64, nDC),
		migSecs: make([][]float64, len(ids)),
		assign:  make([]int, len(ids)),
		cpu:     make([]float64, nDC),
		joules:  make([]float64, nDC),
	}
	for i, id := range ids {
		s.local[id] = i
		s.demand[i] = cpuDemand(in, id)
		if id < len(in.VMEnergy) {
			s.energy[i] = in.VMEnergy[id]
		}
	}
	for d := range in.DCs {
		s.capCPU[d] = in.DCs[d].CPUCapacity()
		s.freeJ[d] = float64(in.RenewForecast[d]) + float64(in.BatteryAvail[d])
		// EUR/kWh -> EUR/J; only relative magnitudes matter to the search,
		// but honest units keep the surrogate comparable to OpCost.
		s.priceJ[d] = float64(in.Prices[d]) / 3.6e6
	}
	// Undirected exchange graph from the last interval's volumes; Each is
	// deterministic, and both endpoints see the summed edge.
	in.Volumes.Each(func(from, to int, vol units.DataSize) {
		i, ok := s.local[from]
		if !ok {
			return
		}
		j, ok := s.local[to]
		if !ok {
			return
		}
		s.adj[i] = append(s.adj[i], neighbor{idx: j, vol: float64(vol)})
		s.adj[j] = append(s.adj[j], neighbor{idx: i, vol: float64(vol)})
	})
	// Migration seconds to every DC, per VM (zero rows for new arrivals —
	// they place for free).
	for i, id := range ids {
		cur, existed := in.Current[id]
		if !existed {
			continue
		}
		row := make([]float64, nDC)
		for d := 0; d < nDC; d++ {
			if d != cur {
				row[d] = in.Net.MigrationTime(cur, d, in.Image[id])
			}
		}
		s.migSecs[i] = row
	}

	totalJ, meanPrice, totalVol := 0.0, 0.0, 0.0
	for i := range s.energy {
		totalJ += s.energy[i]
	}
	for d := range s.priceJ {
		meanPrice += s.priceJ[d]
	}
	meanPrice /= float64(nDC)
	for i := range s.adj {
		for _, nb := range s.adj[i] {
			if nb.idx > i {
				totalVol += nb.vol
			}
		}
	}
	s.scale[0] = math.Max(totalJ*meanPrice, 1e-9)
	s.scale[1] = math.Max(totalVol, 1)
	s.scale[2] = math.Max(in.Constraint, 1)
	return s
}

// setAssign installs an assignment and recomputes the aggregate loads and
// objective terms from scratch.
func (s *searchState) setAssign(assign []int) {
	copy(s.assign, assign)
	for d := range s.cpu {
		s.cpu[d] = 0
		s.joules[d] = 0
	}
	s.cross = 0
	s.mig = 0
	for i := range s.assign {
		d := s.assign[i]
		s.cpu[d] += s.demand[i]
		s.joules[d] += s.energy[i]
		if row := s.migSecs[i]; row != nil {
			s.mig += row[d]
		}
		for _, nb := range s.adj[i] {
			if nb.idx > i && s.assign[nb.idx] != d {
				s.cross += nb.vol
			}
		}
	}
}

// objectives returns the current assignment's surrogate vector
// (paid cost EUR, cross-DC bytes, migration seconds).
func (s *searchState) objectives() []float64 {
	cost := 0.0
	for d := range s.joules {
		if paid := s.joules[d] - s.freeJ[d]; paid > 0 {
			cost += paid * s.priceJ[d]
		}
	}
	return []float64{cost, s.cross, s.mig}
}

// moveDelta returns the objective-vector change of moving VM i to DC to,
// without applying it.
func (s *searchState) moveDelta(i, to int) (dCost, dCross, dMig float64) {
	from := s.assign[i]
	if from == to {
		return 0, 0, 0
	}
	paid := func(d int, joules float64) float64 {
		if p := joules - s.freeJ[d]; p > 0 {
			return p * s.priceJ[d]
		}
		return 0
	}
	dCost = paid(from, s.joules[from]-s.energy[i]) - paid(from, s.joules[from]) +
		paid(to, s.joules[to]+s.energy[i]) - paid(to, s.joules[to])
	for _, nb := range s.adj[i] {
		other := s.assign[nb.idx]
		if other == from {
			dCross += nb.vol // edge was intra, becomes cross
		}
		if other == to {
			dCross -= nb.vol // edge was cross, becomes intra
		}
	}
	if row := s.migSecs[i]; row != nil {
		dMig = row[to] - row[from]
	}
	return dCost, dCross, dMig
}

// apply executes the move and updates the aggregates incrementally.
func (s *searchState) apply(i, to int) {
	_, dCross, dMig := s.moveDelta(i, to)
	from := s.assign[i]
	s.cpu[from] -= s.demand[i]
	s.joules[from] -= s.energy[i]
	s.cpu[to] += s.demand[i]
	s.joules[to] += s.energy[i]
	s.cross += dCross
	s.mig += dMig
	s.assign[i] = to
}

// startWeights gives each start its objective weighting: balanced plus
// one leaning per objective.
var startWeights = [searchStarts][3]float64{
	{1, 1, 1},
	{4, 1, 1}, // cost-leaning
	{1, 4, 1}, // traffic-leaning
	{1, 1, 4}, // migration-averse
}

// Place implements Policy: the multi-start archive search.
func (p *ParetoSearch) Place(in *Input) Placement {
	nDC := len(in.DCs)
	if len(in.ActiveVMs) == 0 || nDC == 0 {
		return Placement{DCOf: map[int]int{}}
	}
	s := newSearchState(in)

	// Incumbent: existing VMs stay put; arrivals go to the DC with the most
	// free energy headroom after earlier arrivals, in ascending id order —
	// deterministic, capacity-aware, and shared by every start.
	incumbent := make([]int, len(s.ids))
	headroom := make([]float64, nDC)
	for d := range headroom {
		headroom[d] = s.freeJ[d]
	}
	cpuSeed := make([]float64, nDC)
	for i, id := range s.ids {
		if cur, ok := in.Current[id]; ok {
			incumbent[i] = cur
			cpuSeed[cur] += s.demand[i]
			headroom[cur] -= s.energy[i]
		} else {
			incumbent[i] = -1
		}
	}
	for i := range s.ids {
		if incumbent[i] >= 0 {
			continue
		}
		best, bestScore := -1, math.Inf(-1)
		for d := 0; d < nDC; d++ {
			if cpuSeed[d]+s.demand[i] > s.capCPU[d] {
				continue
			}
			if headroom[d] > bestScore {
				best, bestScore = d, headroom[d]
			}
		}
		if best < 0 {
			// Every DC is CPU-full: overflow to the least-loaded one
			// (relative to capacity) rather than piling onto DC 0.
			rel := math.Inf(1)
			for d := 0; d < nDC; d++ {
				if r := cpuSeed[d] / s.capCPU[d]; r < rel {
					best, rel = d, r
				}
			}
		}
		incumbent[i] = best
		cpuSeed[best] += s.demand[i]
		headroom[best] -= s.energy[i]
	}

	// Multi-start climbs. Every draw derives from (seed, slot, start), so
	// the search is a pure function of its inputs — no cross-slot state.
	var archive []pareto.Point
	var archiveAssign [][]int
	for k, w := range startWeights {
		src := rng.New(rng.Hash(p.seed, uint64(in.Slot), uint64(k), 0x9a7e70)) // stream per (seed, slot, start)
		s.setAssign(incumbent)
		if k > 0 {
			// Capacity-checked kicks: a perturbation may only land where the
			// VM still fits, so starts never *introduce* over-capacity DCs
			// (an already-overloaded incumbent is the climb's to unwind).
			kicks := int(searchPerturb * float64(len(incumbent)))
			for j := 0; j < kicks; j++ {
				i, to := src.Intn(len(incumbent)), src.Intn(nDC)
				if to != s.assign[i] && s.cpu[to]+s.demand[i] <= s.capCPU[to] {
					s.apply(i, to)
				}
			}
		}

		for sweep := 0; sweep < searchSweeps; sweep++ {
			improved := false
			for _, i := range src.Perm(len(s.ids)) {
				from := s.assign[i]
				bestTo, bestGain := -1, 1e-12
				for to := 0; to < nDC; to++ {
					if to == from || s.cpu[to]+s.demand[i] > s.capCPU[to] {
						continue
					}
					dc, dx, dm := s.moveDelta(i, to)
					gain := -(w[0]*dc/s.scale[0] + w[1]*dx/s.scale[1] + w[2]*dm/s.scale[2])
					if gain > bestGain {
						bestTo, bestGain = to, gain
					}
				}
				if bestTo >= 0 {
					s.apply(i, bestTo)
					improved = true
				}
			}
			if !improved {
				break
			}
		}

		// Archive the endpoint if no incumbent dominates it; drop the ones
		// it dominates (the NSGA-lite elitist archive).
		v := s.objectives()
		dominated := false
		for _, a := range archive {
			if pareto.Dominates(a.V, v) {
				dominated = true
				break
			}
		}
		if !dominated {
			keepPts := archive[:0]
			keepAsg := archiveAssign[:0]
			for ai, a := range archive {
				if !pareto.Dominates(v, a.V) {
					keepPts = append(keepPts, a)
					keepAsg = append(keepAsg, archiveAssign[ai])
				}
			}
			archive = append(keepPts, pareto.Point{Name: startName(k), V: v})
			archiveAssign = append(keepAsg, append([]int(nil), s.assign...))
		}
	}

	// Knee of the slot's mini-front becomes the wish assignment.
	front := make([]int, len(archive))
	for i := range front {
		front[i] = i
	}
	choice := pareto.Knee(archive, front)
	chosen := archiveAssign[choice]

	wish := make(map[int]int, len(s.ids))
	for i, id := range s.ids {
		wish[id] = chosen[i]
	}
	order := append([]int(nil), s.ids...)
	slices.Sort(order)
	return applyWishes(in, order, wish)
}

// startName labels archive entries deterministically for knee tie-breaks.
func startName(k int) string {
	return "start-" + strconv.Itoa(k)
}
