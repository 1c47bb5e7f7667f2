// Package policy defines the controller interface the simulator drives and
// implements the three state-of-the-art baselines the paper compares
// against (Sect. V-B):
//
//   - Pri-aware  [17] Gu et al., ICNC 2015 — cost-aware placement onto the
//     DCs with the lowest current grid price.
//   - Ener-aware [5] Kim et al., DATE 2013 — FFD clustering of VMs onto DCs
//     plus CPU-load-correlation-aware local allocation.
//   - Net-aware  [6] Biran et al., CCGRID 2012 (the GH heuristic) —
//     network-aware placement balancing traffic across DCs.
//
// The proposed two-phase controller lives in internal/core and implements
// the same interface. All policies run on identical inputs and identical
// green controllers, as in the paper ("all the mentioned methods are used
// jointly with the same local green controller").
package policy

import (
	"cmp"
	"slices"

	"geovmp/internal/alloc"
	"geovmp/internal/correlation"
	"geovmp/internal/dc"
	"geovmp/internal/migrate"
	"geovmp/internal/network"
	"geovmp/internal/par"
	"geovmp/internal/power"
	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

// Input is everything a global controller observes at the start of a slot:
// the last interval's loads and data communications, the fleet's energy
// state, forecasts and prices — the paper's "VMs' loads from the previous
// time interval, data communications, renewable forecast, available battery
// energy and grid price from each DC".
type Input struct {
	Slot      timeutil.Slot
	ActiveVMs []int       // all VMs to place this slot, ascending ids
	Current   map[int]int // VM -> current DC; absent means newly arrived
	// Profiles holds last-interval downsampled utilization profiles.
	Profiles *correlation.ProfileSet
	// Volumes holds last-interval inter-VM directed data volumes.
	Volumes *correlation.DataMatrix
	// VMEnergy predicts each VM's facility energy for the next slot,
	// Joules, indexed by VM id (dense; inactive ids read 0).
	VMEnergy []float64
	// Image gives each VM's migration image size, indexed by VM id.
	Image []units.DataSize

	DCs           dc.Fleet
	Prices        []units.Price  // current grid price per DC
	RenewForecast []units.Energy // next-slot PV forecast per DC
	BatteryAvail  []units.Energy // usable battery energy per DC
	LastEnergy    []units.Energy // facility energy per DC over the last slot

	Net        *network.State
	Constraint float64 // migration latency budget per link pair, seconds

	// Health, when fault injection is active, gives each DC's remaining
	// capacity fraction this slot: 1 healthy, 0 fully down. Nil on
	// fault-free runs. Policies need not read it — the engine already
	// scales each DC's Servers to the surviving count, which every
	// capacity-sizing path picks up — but health-aware controllers can
	// use it to bias placement away from degraded sites.
	Health []float64

	// Workers optionally lends the controller extra goroutines for its
	// internal sharded passes (the proposed controller shards its embedding
	// and clustering with it). The experiment engine supplies the sweep's
	// shared worker budget here; nil means run serially. Controllers must
	// produce identical decisions at any worker count.
	Workers *par.Budget

	// FastMath opts controllers into their approximate fast-numeric paths
	// (quantized correlation kernel, frozen embedding peers).
	// Default off: every controller must be bit-identical to prior releases
	// when unset. See correlation.FastEps for the per-pair error budget.
	FastMath bool
}

// Placement is a global controller's decision: a DC for every active VM and
// the migrations actually executed to get there.
type Placement struct {
	DCOf     map[int]int
	Moves    []migrate.Move
	Rejected int
}

// EpochAware is optionally implemented by policies that react to the
// rolling-horizon engine's epoch boundaries. The simulator calls StartEpoch
// once per interior boundary (epoch >= 1), before the boundary slot's
// Place, so the policy can re-optimize for the new workload regime —
// warm-started from its carried state, not from scratch. Implementations
// must stay deterministic: the signal may arrive on any worker schedule.
type EpochAware interface {
	StartEpoch(epoch int, start timeutil.Slot)
}

// Policy is a complete placement method: a global clustering phase and a
// local server-allocation phase.
type Policy interface {
	// Name identifies the policy in reports ("Proposed", "Ener-aware", ...).
	Name() string
	// Place runs the global phase.
	Place(in *Input) Placement
	// Allocate runs the local phase for one DC's VM set.
	Allocate(d *dc.DC, ids []int, ps *correlation.ProfileSet) alloc.Result
}

// --- shared helpers ---

// cpuDemand returns the VM's mean utilization from its last profile; the
// baselines size DC capacity in reference cores with it.
func cpuDemand(in *Input, id int) float64 {
	if m := in.Profiles.Mean(id); m > 0 {
		return m
	}
	return 0.3 // unseen VM: class-mean prior
}

// peakDemand returns the VM's peak utilization from its last profile — the
// stationary worst-case sizing the FFD-style baselines admit with.
func peakDemand(in *Input, id int) float64 {
	if p := in.Profiles.Peak(id); p > 0 {
		return p
	}
	return 0.5 // unseen VM: conservative prior
}

// sortedByDemandDesc returns the active VMs ordered by descending CPU
// demand (FFD order), ties by id. The comparator is a total order (the id
// tiebreak), so the non-reflective sort produces the same permutation the
// former sort.Slice did.
func sortedByDemandDesc(in *Input) []int {
	ids := append([]int(nil), in.ActiveVMs...)
	slices.SortFunc(ids, func(a, b int) int {
		da, db := cpuDemand(in, a), cpuDemand(in, b)
		switch {
		case da > db:
			return -1
		case da < db:
			return 1
		}
		return cmp.Compare(a, b)
	})
	return ids
}

// applyWishes turns a desired assignment into an executable placement under
// the per-link migration latency budget: existing VMs move only while their
// image fits the remaining budget of the (from, to) link pair; new VMs are
// placed unconditionally. Wishes are processed in the given order, so
// callers encode their priorities by ordering ids.
func applyWishes(in *Input, order []int, wish map[int]int) Placement {
	p := Placement{DCOf: make(map[int]int, len(order))}
	n := len(in.DCs)
	used := make([][]float64, n)
	for i := range used {
		used[i] = make([]float64, n)
	}
	for _, id := range order {
		target := wish[id]
		cur, existed := in.Current[id]
		if !existed {
			p.DCOf[id] = target
			continue
		}
		if target == cur {
			p.DCOf[id] = cur
			continue
		}
		t := in.Net.MigrationTime(cur, target, in.Image[id])
		if used[cur][target]+t < in.Constraint {
			used[cur][target] += t
			p.DCOf[id] = target
			p.Moves = append(p.Moves, migrate.Move{ID: id, From: cur, To: target, Image: in.Image[id], Seconds: t})
		} else {
			p.DCOf[id] = cur
			p.Rejected++
		}
	}
	return p
}

// corrAwareAllocate is the Kim et al. local phase shared by Proposed and
// Ener-aware.
func corrAwareAllocate(d *dc.DC, ids []int, ps *correlation.ProfileSet) alloc.Result {
	return alloc.CorrelationAware(ids, ps, d.Model, d.Servers)
}

// plainAllocate is the stationary local phase used by Pri- and Net-aware.
func plainAllocate(d *dc.DC, ids []int, ps *correlation.ProfileSet) alloc.Result {
	return alloc.PlainFFD(ids, ps, d.Model, d.Servers)
}

// serverModelCapacity is a tiny indirection point so tests can reason about
// capacity in one place.
func serverModelCapacity(m *power.ServerModel) float64 { return m.MaxCapacity() }
