// Fault-injection support: a compiled failure schedule (internal/fault)
// is executed against the run — per slot the surviving server counts are
// installed on the fleet, link degradations on the network state, and PV
// dropouts on the renewable feed; a whole-DC outage triggers forced
// evacuation of its VMs through migrate.Run under an emergency budget,
// with VMs that cannot leave accruing a full slot of downtime into the
// response samples. When a storage model (internal/storage) is attached,
// each slot's durability is assessed and shard-rebuild traffic is added
// to the inter-DC volume matrix, competing with user traffic in Eq. 1.
//
// The fault-free path is untouched: a scenario with zero Faults and
// Storage configs never constructs a faultRun, and every hook below is
// gated on the nil check — byte-identical to builds without this file.

package sim

import (
	"math"

	"geovmp/internal/dc"
	"geovmp/internal/fault"
	"geovmp/internal/migrate"
	"geovmp/internal/network"
	"geovmp/internal/policy"
	"geovmp/internal/storage"
	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

// faultRun is the per-run state of the fault engine; nil on fault-free
// runs.
type faultRun struct {
	sched      *fault.Schedule
	model      *storage.Model // nil when the storage model is disabled
	evacBudget int            // migrate.Config.MaxMoves semantics

	baseServers []int // healthy fleet sizes, cached before the first slot

	// Current-slot views, installed by startSlot (alias schedule rows).
	health []float64
	down   []bool
	pv     []float64

	anyDown  bool
	downtime []float64 // per-DC stranded-VM downtime of the current slot

	// Evacuation scratch, reused across slots.
	infCaps   []float64
	zeroLoads []float64
	counts    []int
	cands     []migrate.Candidate

	// Durability accumulators over measured slots.
	lossSum   float64
	lossSlots int
}

// newFaultRun compiles the scenario's fault schedule and storage model,
// or returns nil when both are disabled.
func newFaultRun(sc *Scenario, n int) *faultRun {
	if !sc.Faults.Enabled() && !sc.Storage.Enabled() {
		return nil
	}
	r := &faultRun{
		sched:       fault.Compile(sc.Faults, n, int(sc.Horizon.Slots), sc.Seed),
		model:       storage.NewModel(sc.Storage, n),
		baseServers: make([]int, n),
		downtime:    make([]float64, n),
		infCaps:     make([]float64, n),
		zeroLoads:   make([]float64, n),
		counts:      make([]int, n),
	}
	switch {
	case sc.Faults.EvacMovesPerSlot < 0:
		r.evacBudget = -1
	case sc.Faults.EvacMovesPerSlot > 0:
		r.evacBudget = sc.Faults.EvacMovesPerSlot
	}
	for i := range r.infCaps {
		r.infCaps[i] = math.Inf(1)
	}
	for i, d := range sc.Fleet {
		r.baseServers[i] = d.Servers
	}
	return r
}

// startSlot installs slot sl's fault state: surviving server counts on
// the fleet (every capacity-sizing path — policies, allocators, energy
// ceilings — reads dc.Servers, so the whole stack sees the loss), link
// degradations on the network state, and the PV/health views.
func (r *faultRun) startSlot(sl timeutil.Slot, fleet dc.Fleet, net *network.State) {
	r.health = r.sched.CapFrac(sl)
	r.down = r.sched.DCDown(sl)
	r.pv = r.sched.PVFrac(sl)
	net.SetDegrade(r.sched.LinkFactor(sl))
	clear(r.downtime)
	r.anyDown = false
	for i, d := range fleet {
		if r.down[i] {
			r.anyDown = true
		}
		d.Servers = scaledServers(r.baseServers[i], r.health[i])
	}
}

// evacuate forces VMs off fully-down DCs: every VM the placement left
// on a dead DC becomes a migration candidate toward the least-loaded
// healthy DC, revised by migrate.Run under the emergency budget with
// the dead DCs forbidden as destinations and the latency window opened
// to the full slot (an emergency transfer may burn the whole hour).
// Executed moves are appended to the placement (so migration charging
// and counters see them); VMs that could not move remain stranded and
// charge a full slot of downtime to their DC's response sample.
func (r *faultRun) evacuate(p policy.Placement, in *policy.Input, net *network.State, res *Result, measured bool) policy.Placement {
	if !r.anyDown {
		return p
	}
	n := len(r.down)
	// Load = VMs currently assigned per healthy DC, so evacuees spread.
	for i := range r.counts {
		r.counts[i] = 0
	}
	evacuees := 0
	for _, id := range in.ActiveVMs {
		d := p.DCOf[id]
		if d >= 0 && d < n && r.down[d] {
			evacuees++
		} else {
			r.counts[d]++
		}
	}
	if evacuees > 0 && r.evacBudget >= 0 {
		r.cands = r.cands[:0]
		for _, id := range in.ActiveVMs { // ascending ids: deterministic order
			d := p.DCOf[id]
			if d < 0 || d >= n || !r.down[d] {
				continue
			}
			best := -1
			for t := 0; t < n; t++ {
				if r.down[t] {
					continue
				}
				if best < 0 || r.counts[t] < r.counts[best] {
					best = t
				}
			}
			if best < 0 {
				break // every DC down: nobody can leave
			}
			r.counts[best]++
			r.cands = append(r.cands, migrate.Candidate{
				ID:      id,
				Current: d,
				Target:  best,
				Load:    in.VMEnergy[id],
				Image:   in.Image[id],
				Dist:    float64(len(r.cands)),
			})
		}
		if len(r.cands) > 0 {
			mres := migrate.Run(r.cands, migrate.Config{
				NDC:        n,
				Caps:       r.infCaps,
				Loads:      r.zeroLoads,
				Constraint: timeutil.SlotSeconds,
				Net:        net,
				MaxMoves:   r.evacBudget,
				Forbidden:  r.down,
			})
			for k, c := range r.cands {
				p.DCOf[c.ID] = mres.DC[k]
			}
			p.Moves = append(p.Moves, mres.Moves...)
			if measured {
				res.Evacuations += len(mres.Moves)
			}
		}
	}
	// Whoever is still on a dead DC is stranded for the slot.
	for _, id := range in.ActiveVMs {
		d := p.DCOf[id]
		if d >= 0 && d < n && r.down[d] {
			r.downtime[d] = timeutil.SlotSeconds
			if measured {
				res.StrandedVMSlots++
			}
		}
	}
	return p
}

// applyRepair assesses the slot's data durability and injects shard
// rebuild traffic into the inter-DC volume matrix, where it competes
// with user traffic in the destination-latency computation.
func (r *faultRun) applyRepair(ids []int, vol [][]units.DataSize, res *Result, measured bool) {
	if r.model == nil {
		return
	}
	st := r.model.Assess(ids, r.down, r.health, func(from, to int, gb float64) {
		bytes := units.DataSize(gb) * units.Gigabyte
		vol[from][to] += bytes
		if measured {
			res.RepairBytes += bytes
		}
	})
	if measured {
		r.lossSum += st.LossProb
		r.lossSlots++
	}
}

// lossProb returns the run's mean per-slot data-loss probability.
func (r *faultRun) lossProb() float64 {
	if r.lossSlots == 0 {
		return 0
	}
	return r.lossSum / float64(r.lossSlots)
}

// scaledServers maps a capacity fraction onto a surviving server count
// (round-to-nearest; a fully-down DC keeps zero servers).
func scaledServers(base int, frac float64) int {
	if frac >= 1 {
		return base
	}
	if frac <= 0 {
		return 0
	}
	return int(math.Floor(frac*float64(base) + 0.5))
}
