// Rolling-horizon epoch support: the horizon is split into contiguous
// epochs, the policy is signalled at every interior boundary so it can
// re-optimize for the new workload regime, executed migrations are revised
// under a per-epoch move budget (internal/migrate, driven by the engine for
// every policy, baselines included), and each move's transfer energy and
// service downtime are charged into the per-slot accounting so energy, cost
// and QoS reflect actual moves — the standard dynamic-placement formulation
// (Xu et al., arXiv:1607.06269; Attaoui & Sabir, arXiv:1802.05113).
//
// The static path is untouched: a scenario with Epochs <= 1 and a zero
// MigrationBudget runs exactly the pre-epoch pipeline, byte for byte.

package sim

import (
	"math"

	"geovmp/internal/migrate"
	"geovmp/internal/network"
	"geovmp/internal/policy"
	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

// Migration charging defaults, applied when the rolling-horizon engine is
// active and the corresponding MigrationBudget field is zero (negative
// disables, mirroring the scenario knobs' convention).
const (
	// DefaultMigEnergyPerGB is the facility energy charged per gigabyte of
	// migrated image, in joules: NIC, memory-copy and hypervisor overhead
	// on both endpoints, in the range live-migration measurement studies
	// report (~0.2-0.5 J per MB end to end).
	DefaultMigEnergyPerGB = 512.0
	// DefaultMigDowntimeSec is the stop-and-copy service pause charged per
	// executed move, in seconds.
	DefaultMigDowntimeSec = 0.5
)

// MigrationBudget parameterizes the rolling-horizon engine's migration
// accounting. The zero value means "engine defaults" for the charging
// fields and "unlimited" for the move budget; setting any field on an
// otherwise static scenario (Epochs <= 1) activates the engine with a
// single epoch spanning the horizon.
type MigrationBudget struct {
	// MaxMovesPerEpoch caps executed migrations per epoch: 0 is unlimited,
	// a positive value rejects wishes beyond it until the next boundary
	// resets the budget, and a negative value forbids migration entirely
	// (new VMs still place freely).
	MaxMovesPerEpoch int
	// EnergyPerGB is the facility energy charged per GB of image moved,
	// joules, split evenly between the source and destination DC (default
	// DefaultMigEnergyPerGB; negative disables the charge). The charge is
	// additive on top of the green controller's dispatch: it lands in the
	// facility totals (TotalEnergy, EnergyPerDC, the energy series) priced
	// at each DC's current tariff, but deliberately not in the
	// grid/renewable/battery sourcing split — for rolling cells the
	// decomposition closes as grid + renewable + battery + MigEnergy,
	// with MigEnergy reported separately (mig_energy_kwh in the JSON
	// export). Pricing at the grid tariff is the conservative bound.
	EnergyPerGB float64
	// DowntimeSec is the service pause charged per executed move, seconds,
	// added to the destination DC's slot response sample (default
	// DefaultMigDowntimeSec; negative disables the charge).
	DowntimeSec float64
}

// resolved maps the zero/negative conventions to effective charging values.
func (b MigrationBudget) resolved() MigrationBudget {
	switch {
	case b.EnergyPerGB == 0:
		b.EnergyPerGB = DefaultMigEnergyPerGB
	case b.EnergyPerGB < 0:
		b.EnergyPerGB = 0
	}
	switch {
	case b.DowntimeSec == 0:
		b.DowntimeSec = DefaultMigDowntimeSec
	case b.DowntimeSec < 0:
		b.DowntimeSec = 0
	}
	return b
}

// EpochStat is one epoch's slice of a rolling-horizon run. Like every other
// metric, it accumulates measured slots only (warmup slots are excluded),
// while StartSlot/EndSlot describe the epoch's full [start, end) window.
type EpochStat struct {
	Epoch     int
	StartSlot int
	EndSlot   int

	Cost   units.Money  // operational cost, incl. migration energy cost
	Energy units.Energy // facility energy, incl. migration energy

	Migrations     int
	MigRejected    int
	MigratedBytes  units.DataSize
	MigEnergy      units.Energy // charged migration overhead
	MigDowntimeSec float64      // charged service downtime
}

// EpochPlan splits a horizon of S slots into E contiguous epochs of
// near-equal length: epoch e spans [floor(e*S/E), floor((e+1)*S/E)). The
// zero plan (or any epochs < 1) collapses to a single epoch.
type EpochPlan struct {
	epochs int
	slots  timeutil.Slot
}

// NewEpochPlan builds a plan over `slots` slots. Epoch counts below 1 are
// clamped to 1, counts above the slot count to the slot count (an epoch is
// at least one slot).
func NewEpochPlan(epochs int, slots timeutil.Slot) EpochPlan {
	if epochs < 1 {
		epochs = 1
	}
	if slots > 0 && timeutil.Slot(epochs) > slots {
		epochs = int(slots)
	}
	return EpochPlan{epochs: epochs, slots: slots}
}

// Epochs returns the number of epochs in the plan.
func (p EpochPlan) Epochs() int {
	if p.epochs < 1 {
		return 1
	}
	return p.epochs
}

// Start returns the first slot of epoch e.
func (p EpochPlan) Start(e int) timeutil.Slot {
	return timeutil.Slot(int64(e) * int64(p.slots) / int64(p.Epochs()))
}

// End returns the exclusive end slot of epoch e.
func (p EpochPlan) End(e int) timeutil.Slot { return p.Start(e + 1) }

// epochRun is the per-run state of the rolling-horizon engine; nil on the
// static path.
type epochRun struct {
	plan    EpochPlan
	budget  MigrationBudget // caller's budget (MaxMovesPerEpoch semantics)
	costs   MigrationBudget // resolved charging values
	stats   []EpochStat
	current int
	moves   int // executed moves in the current epoch

	infCaps   []float64
	zeroLoads []float64
	downtime  []float64 // per-DC charged downtime of the current slot
	cands     []migrate.Candidate

	// The current slot's charged totals, filled by chargeMoves and folded
	// into the epoch stats by accumulate — one charging site, so the
	// headline counters and the per-epoch breakdown can never disagree.
	slotMigEnergy units.Energy
	slotMigDown   float64
}

// newEpochRun builds the engine state for a rolling scenario, or returns
// nil when sc runs the static path.
func newEpochRun(sc *Scenario, n int) *epochRun {
	if sc.Epochs <= 1 && sc.Migration == (MigrationBudget{}) {
		return nil
	}
	plan := NewEpochPlan(sc.Epochs, sc.Horizon.Slots)
	r := &epochRun{
		plan:      plan,
		budget:    sc.Migration,
		costs:     sc.Migration.resolved(),
		stats:     make([]EpochStat, plan.Epochs()),
		infCaps:   make([]float64, n),
		zeroLoads: make([]float64, n),
		downtime:  make([]float64, n),
	}
	for e := range r.stats {
		r.stats[e] = EpochStat{Epoch: e, StartSlot: int(plan.Start(e)), EndSlot: int(plan.End(e))}
	}
	for i := range r.infCaps {
		r.infCaps[i] = math.Inf(1)
	}
	return r
}

// startSlot advances the engine to sl's epoch, resetting the move budget
// and signalling EpochAware policies at each interior boundary crossed.
func (r *epochRun) startSlot(sl timeutil.Slot, pol policy.Policy) {
	for r.opens(sl) {
		r.current++
		r.moves = 0
		if ea, ok := pol.(policy.EpochAware); ok {
			ea.StartEpoch(r.current, r.plan.Start(r.current))
		}
	}
	clear(r.downtime)
}

// opens reports whether startSlot(sl), called next, crosses an interior
// boundary; false on the static path.
func (r *epochRun) opens(sl timeutil.Slot) bool {
	return r != nil && r.current+1 < r.plan.Epochs() && sl >= r.plan.Start(r.current+1)
}

// revise feeds the policy's executed moves through migrate.Run under the
// epoch's remaining move budget: wishes beyond the budget revert to their
// current DC and count as rejected. The latency constraint is re-checked
// against a fresh per-link table; since the policy already admitted these
// moves under the same per-link budget (with identical, purely
// slot-state-derived transfer times), the re-check never rejects — only
// the move budget does. Candidates keep the policy's submission order as
// their queue priority.
func (r *epochRun) revise(p policy.Placement, in *policy.Input, net *network.State) policy.Placement {
	if r.budget.MaxMovesPerEpoch == 0 || len(p.Moves) == 0 {
		return p
	}
	maxMoves := -1 // budget exhausted or migration forbidden: reject all
	if r.budget.MaxMovesPerEpoch > 0 && r.moves < r.budget.MaxMovesPerEpoch {
		maxMoves = r.budget.MaxMovesPerEpoch - r.moves
	}
	r.cands = r.cands[:0]
	for k, m := range p.Moves {
		r.cands = append(r.cands, migrate.Candidate{
			ID:      m.ID,
			Current: m.From,
			Target:  m.To,
			Load:    in.VMEnergy[m.ID],
			Image:   m.Image,
			Dist:    float64(k),
		})
	}
	mres := migrate.Run(r.cands, migrate.Config{
		NDC:        len(r.infCaps),
		Caps:       r.infCaps,
		Loads:      r.zeroLoads,
		Constraint: in.Constraint,
		Net:        net,
		MaxMoves:   maxMoves,
	})
	for k, c := range r.cands {
		p.DCOf[c.ID] = mres.DC[k]
	}
	p.Moves = mres.Moves
	p.Rejected += mres.Rejected
	return p
}

// chargeMoves accounts the slot's executed moves: transfer energy is added
// to the source and destination DCs' slot energy (feeding the facility
// totals and the controllers' demand predictor) and priced at each DC's
// current tariff, downtime accumulates per destination DC for the slot's
// response samples. It returns the slot's migration cost contribution;
// per-Result counters are updated only for measured slots, like every
// other metric.
func (r *epochRun) chargeMoves(res *Result, moves []migrate.Move, prices []units.Price, slotEnergy []units.Energy, measured bool) units.Money {
	var slotCost units.Money
	r.slotMigEnergy, r.slotMigDown = 0, 0
	for _, m := range moves {
		e := units.Energy(r.costs.EnergyPerGB * m.Image.GB())
		if e > 0 {
			half := e / 2
			slotEnergy[m.From] += half
			slotEnergy[m.To] += half
			r.slotMigEnergy += e
			if measured {
				cFrom := prices[m.From].Cost(half)
				cTo := prices[m.To].Cost(half)
				slotCost += cFrom + cTo
				res.CostPerDC[m.From] += cFrom
				res.CostPerDC[m.To] += cTo
				res.MigEnergy += e
			}
		}
		if r.costs.DowntimeSec > 0 {
			r.downtime[m.To] += r.costs.DowntimeSec
			r.slotMigDown += r.costs.DowntimeSec
			if measured {
				res.MigDowntimeSec += r.costs.DowntimeSec
			}
		}
	}
	return slotCost
}

// accumulate folds one measured slot into the current epoch's stats,
// reusing the slot totals chargeMoves computed so the breakdown sums to
// the headline counters by construction.
func (r *epochRun) accumulate(slotCost units.Money, slotTotal units.Energy, moves []migrate.Move, rejected int) {
	es := &r.stats[r.current]
	es.Cost += slotCost
	es.Energy += slotTotal
	es.Migrations += len(moves)
	es.MigRejected += rejected
	es.MigEnergy += r.slotMigEnergy
	es.MigDowntimeSec += r.slotMigDown
	for _, m := range moves {
		es.MigratedBytes += m.Image
	}
}
