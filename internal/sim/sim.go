// Package sim is the discrete-time simulator that evaluates a placement
// policy over the experiment horizon, reproducing the paper's measurement
// loop (Sect. V):
//
//   - once per hour slot, the global controller re-places the fleet's VMs
//     and the local controllers pack each DC's servers;
//   - every fine step (5 s in the paper), server utilizations are sampled,
//     IT power is scaled by the site's instantaneous PUE, and the green
//     controller splits the facility demand across renewable, battery and
//     grid, accruing operational cost at the current tariff;
//   - per slot, the actual inter-VM volumes are aggregated per DC pair
//     (plus migration images) and the worst-case destination latency of
//     Eq. 1 becomes the slot's response-time sample per DC.
//
// The same workload, network conditions and green controllers are replayed
// for every policy (all randomness is seed-derived), so metric differences
// are attributable to placement alone — the paper's comparison setup.
//
// The hot loops are allocation-free in steady state: per-slot containers
// (profile sets, volume matrices, placement buffers) are reused across
// slots, and when the workload is a compiled trace (trace.Compile) the
// per-step utilization reads become slice indexing instead of trace
// synthesis.
package sim

import (
	"context"
	"fmt"
	"sync"

	"geovmp/internal/alloc"
	"geovmp/internal/correlation"
	"geovmp/internal/dc"
	"geovmp/internal/fault"
	"geovmp/internal/metrics"
	"geovmp/internal/network"
	"geovmp/internal/par"
	"geovmp/internal/policy"
	"geovmp/internal/rng"
	"geovmp/internal/storage"
	"geovmp/internal/timeutil"
	"geovmp/internal/trace"
	"geovmp/internal/units"
)

// Defaults applied by Scenario for unset (zero) knobs. Zero means "unset"
// for every defaulted field; fields whose zero value is also a meaningful
// override accept a negative value to select it, mirroring WarmupSlots:
// QoS < 0 disables the migration guarantee (the latency budget spans the
// whole slot) and ProfileSamples < 0 gives the controllers empty profiles.
// FineStepSec has no meaningful zero override — a non-positive step cannot
// be simulated — so any value <= 0 selects the default.
const (
	DefaultQoS            = 0.98
	DefaultProfileSamples = 12
	DefaultFineStepSec    = 5
	DefaultWarmupSlots    = 6
)

// ResolveQoS maps a Scenario.QoS field value to the effective guarantee:
// the default when unset (0), no guarantee (0) when negative.
func ResolveQoS(q float64) float64 {
	switch {
	case q == 0:
		return DefaultQoS
	case q < 0:
		return 0
	}
	return q
}

// ResolveProfileSamples maps a Scenario.ProfileSamples field value to the
// effective per-slot profile length: the default when unset (0), zero
// samples when negative.
func ResolveProfileSamples(n int) int {
	switch {
	case n == 0:
		return DefaultProfileSamples
	case n < 0:
		return 0
	}
	return n
}

// ResolveFineStep maps a Scenario.FineStepSec field value to the effective
// green-controller period; any non-positive value selects the default.
func ResolveFineStep(sec float64) float64 {
	if sec <= 0 {
		return DefaultFineStepSec
	}
	return sec
}

// Scenario bundles everything a run needs. Build one per policy run (DC
// battery state and forecaster history are mutable); the workload may be
// shared between runs — it only needs to be safe for concurrent readers,
// which both the synthetic Workload and a compiled trace are.
type Scenario struct {
	Name     string
	Fleet    dc.Fleet
	Workload trace.Source
	Topo     *network.Topology
	Horizon  timeutil.Horizon
	Seed     uint64
	// QoS is the migration latency guarantee (default 0.98; negative
	// disables it — the per-link budget spans the whole slot).
	QoS float64
	// ProfileSamples is the per-slot downsampled profile length (default
	// 12; negative gives the controllers empty profiles).
	ProfileSamples int
	// FineStepSec is the green-controller step (default 5, the paper's;
	// any non-positive value selects the default).
	FineStepSec float64
	// WarmupSlots are simulated but excluded from every metric: the first
	// slots of a cold-started fleet are placement transients no real
	// week-long deployment would exhibit (default 6, capped at half the
	// horizon; negative disables).
	WarmupSlots int
	// Epochs splits the horizon into that many rolling-horizon epochs
	// (see internal/sim/epoch.go): the policy is signalled at each interior
	// boundary to re-optimize for the new regime, the per-epoch migration
	// budget resets, and Result gains a per-epoch breakdown. Epochs <= 1
	// with a zero Migration budget is the static path, byte-identical to a
	// scenario without these fields.
	Epochs int
	// Migration parameterizes the rolling engine's migration accounting:
	// per-epoch move budget, per-GB transfer energy, per-move downtime.
	// Setting any field activates the engine even at Epochs <= 1.
	Migration MigrationBudget
	// Env optionally supplies the fleet's precomputed PUE / renewable / PV
	// series (CompileEnvironment). Runs whose horizon and fine step the
	// table covers read it instead of re-evaluating the site models; a
	// mismatched or nil table is ignored. The experiment engine shares one
	// per scenario x seed.
	Env *Environment
	// Workers optionally lends the run extra goroutines for its sharded
	// passes (the fine-plan evaluation, and the controller's embedding and
	// clustering via policy.Input). The experiment engine installs the
	// sweep's shared worker budget here so cells x intra-cell shards never
	// exceed the configured parallelism; nil runs everything serially.
	// Results are bit-identical at any worker count.
	Workers *par.Budget
	// FastMath opts controllers into their approximate fast-numeric paths
	// (quantized correlation kernel, frozen embedding peers);
	// default off leaves every run bit-identical to prior releases.
	FastMath bool
	// Faults injects a deterministic failure schedule (internal/fault):
	// server and whole-DC outages, link degradations, PV dropouts. The
	// zero config runs the exact fault-free pipeline, byte for byte.
	Faults fault.Config
	// Storage attaches the replicated/erasure-coded data-placement model
	// (internal/storage): under faults, shard losses yield repair traffic
	// in the volume matrix and an analytic data-loss risk in the result.
	Storage storage.Config
}

func (sc *Scenario) applyDefaults() {
	sc.QoS = ResolveQoS(sc.QoS)
	sc.ProfileSamples = ResolveProfileSamples(sc.ProfileSamples)
	sc.FineStepSec = ResolveFineStep(sc.FineStepSec)
	if sc.Horizon.Slots == 0 {
		sc.Horizon = timeutil.Week()
	}
	switch {
	case sc.WarmupSlots == 0:
		sc.WarmupSlots = DefaultWarmupSlots
	case sc.WarmupSlots < 0:
		sc.WarmupSlots = 0
	}
	if timeutil.Slot(sc.WarmupSlots) > sc.Horizon.Slots/2 {
		sc.WarmupSlots = int(sc.Horizon.Slots / 2)
	}
}

// Validate checks the scenario wiring.
func (sc *Scenario) Validate() error {
	if sc.Workload == nil {
		return fmt.Errorf("sim: nil workload")
	}
	if err := sc.Fleet.Validate(); err != nil {
		return err
	}
	if sc.Topo == nil {
		return fmt.Errorf("sim: nil topology")
	}
	if err := sc.Topo.Validate(); err != nil {
		return err
	}
	if sc.Topo.N != len(sc.Fleet) {
		return fmt.Errorf("sim: topology has %d DCs, fleet %d", sc.Topo.N, len(sc.Fleet))
	}
	if sc.Horizon.Slots > sc.Workload.Slots() {
		return fmt.Errorf("sim: horizon %d slots exceeds workload %d", sc.Horizon.Slots, sc.Workload.Slots())
	}
	if sc.Epochs < 0 {
		return fmt.Errorf("sim: negative epoch count %d", sc.Epochs)
	}
	if err := sc.Faults.Validate(len(sc.Fleet)); err != nil {
		return err
	}
	if err := sc.Storage.Validate(len(sc.Fleet)); err != nil {
		return err
	}
	return nil
}

// Result aggregates one run's metrics.
type Result struct {
	Policy   string
	Scenario string

	// Operational cost (Fig. 1).
	OpCost     units.Money
	CostPerDC  []units.Money
	CostSeries metrics.Series // EUR per slot

	// Energy (Fig. 2): facility energy consumed by the DCs.
	TotalEnergy  units.Energy
	EnergyPerDC  []units.Energy
	EnergySeries metrics.Series // GJ per slot, fleet-wide

	// Response time (Fig. 3): one sample per (slot, destination DC).
	RespSamples []float64
	RespSummary metrics.Summary

	// Migration behaviour.
	Migrations    int
	MigRejected   int
	MigratedBytes units.DataSize

	// Rolling-horizon breakdown (nil on the static path): one entry per
	// epoch, plus the charged migration overhead totals. MigEnergy is
	// included in TotalEnergy/EnergyPerDC and its cost in OpCost, but not
	// in the grid/renewable/battery sourcing fields — the sourcing
	// decomposition of a rolling cell closes as grid + renewable +
	// battery + MigEnergy (see MigrationBudget.EnergyPerGB).
	Epochs         []EpochStat
	MigEnergy      units.Energy
	MigDowntimeSec float64

	// Survivability (zero on fault-free runs): emergency evacuations
	// executed, VM-slots stranded on dead DCs, shard-rebuild traffic
	// pushed through the backbone, and the mean per-slot probability of
	// data loss under the storage model.
	Evacuations     int
	StrandedVMSlots int
	RepairBytes     units.DataSize
	DataLossProb    float64

	// Traffic locality: application bytes exchanged within a DC vs across
	// DCs (the balance the network-aware policies fight over).
	IntraBytes units.DataSize
	CrossBytes units.DataSize

	// Consolidation.
	MeanActiveServers float64
	Overflowed        int
	// ThrottledCoreSec accumulates demand the packed servers could not
	// serve (capacity shortfall x seconds) — implicit performance loss.
	ThrottledCoreSec float64

	// Energy sourcing.
	GridEnergy    units.Energy
	RenewableUsed units.Energy
	RenewableLost units.Energy
	BatteryOut    units.Energy

	// FinalPlacement maps every VM active in the last slot to its DC — the
	// end-state snapshot used by visualization tools.
	FinalPlacement map[int]int
}

// WorstResp returns the worst-case response time — the paper's SLA metric.
func (r *Result) WorstResp() float64 { return r.RespSummary.Max() }

// MeanResp returns the average response time.
func (r *Result) MeanResp() float64 { return r.RespSummary.Mean() }

// Run simulates pol over sc.
func Run(sc *Scenario, pol policy.Policy) (*Result, error) {
	return RunCtx(context.Background(), sc, pol)
}

// RunCtx simulates pol over sc, checking ctx once per hour slot so a
// cancelled sweep abandons the run promptly instead of finishing the
// horizon. A cancelled run returns ctx's error and no result.
func RunCtx(ctx context.Context, sc *Scenario, pol policy.Policy) (*Result, error) {
	sc.applyDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	w := sc.Workload
	fleet := sc.Fleet
	n := len(fleet)
	numVMs := w.NumVMs()
	net := network.NewState(sc.Topo, rng.New(sc.Seed).Derive("network"))
	constraint := (1 - sc.QoS) * timeutil.SlotSeconds

	// Compiled fast paths: profile rows shared without copying when the
	// sampling matches, and fine-step utilization rows when the fine table
	// matches the scenario's step. Out-of-core tables serve the same rows
	// through per-run chunk cursors, advanced once per slot below; the
	// streamed values are byte-identical to the resident tables'.
	compiled, _ := w.(*trace.Compiled)
	useProfiles := compiled != nil && compiled.Samples() == sc.ProfileSamples
	fineSteps := 0
	var fineCur *trace.FineCursor
	var profCur *trace.ProfileCursor
	if compiled != nil {
		if dt, steps := compiled.FineParams(); steps > 0 && dt == sc.FineStepSec {
			fineSteps = steps
			fineCur = compiled.NewFineCursor(sc.Workers)
		}
		if useProfiles {
			profCur = compiled.NewProfileCursor(sc.Workers)
		}
	}
	env := sc.Env
	if !env.matches(fleet, sc.Horizon.Slots, sc.FineStepSec) {
		env = nil
	}

	res := &Result{
		Policy:      pol.Name(),
		Scenario:    sc.Name,
		CostPerDC:   make([]units.Money, n),
		EnergyPerDC: make([]units.Energy, n),
	}
	res.CostSeries.Name = "cost-eur"
	res.EnergySeries.Name = "energy-gj"
	if measuredSlots := int(sc.Horizon.Slots) - sc.WarmupSlots; measuredSlots > 0 {
		res.RespSamples = make([]float64, 0, measuredSlots*n)
	}

	current := make(map[int]int) // VM -> DC, surviving across slots
	lastEnergy := make([]units.Energy, n)
	var activeServerSum float64

	// Per-slot containers, allocated once and reused across slots.
	var prevIDs []int
	activeSet := make([]bool, numVMs)
	ps := correlation.NewProfileSet(sc.ProfileSamples)
	dm := correlation.NewDataMatrix()
	vmEnergy := make([]float64, numVMs)
	images := make([]units.DataSize, numVMs)
	for id := range images {
		images[id] = w.Image(id)
	}
	perCore := float64(fleet[0].Model.MarginalPower() + fleet[0].Model.IdleShare())
	in := &policy.Input{
		Current:       current,
		Profiles:      ps,
		Volumes:       dm,
		VMEnergy:      vmEnergy,
		Image:         images,
		DCs:           fleet,
		Prices:        make([]units.Price, n),
		RenewForecast: make([]units.Energy, n),
		BatteryAvail:  make([]units.Energy, n),
		LastEnergy:    make([]units.Energy, n),
		Net:           net,
		Constraint:    constraint,
		Workers:       sc.Workers,
		FastMath:      sc.FastMath,
	}
	byDC := make([][]int, n)
	allocs := make([]allocView, n)
	slotEnergy := make([]units.Energy, n)
	vol := make([][]units.DataSize, n)
	for i := range vol {
		vol[i] = make([]units.DataSize, n)
	}
	var fine *finePlan
	if fineSteps > 0 {
		fine = newFinePlan(n, fineSteps, sc.FineStepSec)
	}
	// Rolling-horizon engine state; nil on the static path, which must stay
	// byte-identical to the pre-epoch simulator.
	epoch := newEpochRun(sc, n)
	// Fault engine state; nil on fault-free runs, which must likewise
	// stay byte-identical.
	fr := newFaultRun(sc, n)

	for sl := timeutil.Slot(0); sl < sc.Horizon.Slots; sl++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if epoch != nil {
			epoch.startSlot(sl, pol)
		}
		if fr != nil {
			fr.startSlot(sl, fleet, net)
			in.Health = fr.health
		}
		ids := w.ActiveVMs(sl)
		// Swap the active set to this slot's ids and clear the previous
		// slot's per-VM tables. Ids index dense numVMs-sized tables, so an
		// out-of-contract source surfaces as an error, not a panic.
		for _, id := range prevIDs {
			activeSet[id] = false
			vmEnergy[id] = 0
		}
		for _, id := range ids {
			if id < 0 || id >= numVMs {
				return nil, fmt.Errorf("sim: workload ActiveVMs(%d) returned id %d outside [0, %d)", sl, id, numVMs)
			}
			activeSet[id] = true
		}
		prevIDs = ids
		// Drop departed VMs from the carried placement.
		for id := range current {
			if !activeSet[id] {
				delete(current, id)
			}
		}

		// Observed information: the previous interval's loads and volumes
		// (slot 0 bootstraps from itself).
		obsSlot := sl
		if sl > 0 {
			obsSlot = sl - 1
		}
		ps.Reset()
		if useProfiles {
			if profCur != nil {
				profCur.Advance(obsSlot)
			}
			for _, id := range ids {
				var row []float64
				if profCur != nil {
					row = profCur.ProfileRow(id, obsSlot)
				} else {
					row = compiled.ProfileRow(id, obsSlot)
				}
				if row != nil {
					ps.Add(id, row)
				} else {
					ps.Add(id, w.SlotProfile(id, obsSlot, sc.ProfileSamples))
				}
			}
		} else {
			for _, id := range ids {
				ps.Add(id, w.SlotProfile(id, obsSlot, sc.ProfileSamples))
			}
		}
		dm.Reset()
		for _, e := range w.PlannedVolumes(obsSlot, sl) {
			dm.Add(e.From, e.To, e.Vol)
		}

		// Per-VM energy prediction for the coming slot: mean utilization
		// times the fleet server's fully-loaded per-core power, times the
		// mean PUE across sites.
		var pue float64
		for _, d := range fleet {
			pue += d.Cooling.MeanPUEOverSlot(sl)
		}
		pue /= float64(n)
		for _, id := range ids {
			vmEnergy[id] = ps.Mean(id) * perCore * pue * timeutil.SlotSeconds
		}

		in.Slot = sl
		in.ActiveVMs = ids
		for i, d := range fleet {
			in.Prices[i] = d.Tariff.AtSlot(sl)
			in.RenewForecast[i] = d.Forecast.Forecast(sl)
			in.BatteryAvail[i] = d.Bank.UsableAC()
			in.LastEnergy[i] = lastEnergy[i]
		}

		measured := sl >= timeutil.Slot(sc.WarmupSlots)
		net.Reroll()
		placement := pol.Place(in)
		if epoch != nil {
			placement = epoch.revise(placement, in, net)
			epoch.moves += len(placement.Moves)
		}
		if fr != nil {
			placement = fr.evacuate(placement, in, net, res, measured)
		}
		for i := range byDC {
			byDC[i] = byDC[i][:0]
		}
		for _, id := range ids {
			dcIdx, ok := placement.DCOf[id]
			if !ok || dcIdx < 0 || dcIdx >= n {
				return nil, fmt.Errorf("sim: policy %s left VM %d unplaced at slot %d", pol.Name(), id, sl)
			}
			byDC[dcIdx] = append(byDC[dcIdx], id)
		}
		if measured {
			res.Migrations += len(placement.Moves)
			res.MigRejected += placement.Rejected
			for _, m := range placement.Moves {
				res.MigratedBytes += m.Image
			}
		}

		// Local phase.
		for i, d := range fleet {
			a := pol.Allocate(d, byDC[i], ps)
			if measured {
				res.Overflowed += a.Overflowed
				activeServerSum += float64(a.Active)
			}
			allocs[i].reset(a)
		}

		// Fine loop over [sl, sl+1). With a compiled trace the per-step IT
		// power is evaluated in one vectorized pass over the fine rows;
		// otherwise each step synthesizes utilizations on demand. Both
		// paths accumulate in the same order, so results are identical.
		if fine != nil {
			var rows trace.FineRows = compiled
			if fineCur != nil {
				fineCur.Advance(sl)
				rows = fineCur
			}
			fine.evaluate(rows, compiled, fleet, allocs, sl, sc.Workers)
		}
		clear(slotEnergy)
		var slotCost units.Money
		dt := sc.FineStepSec
		start := sl.Seconds()
		envBase := 0
		if env != nil {
			envBase = int(sl) * env.steps
		}
		k := 0
		for t := 0.0; t < timeutil.SlotSeconds; t += dt {
			at := start + t
			step := timeutil.Step(int64(at) / timeutil.StepSeconds)
			for i, d := range fleet {
				var it units.Power
				var throttled float64
				if fine != nil {
					it, throttled = fine.itPower[i][k], fine.throttled[i][k]
				} else {
					it, throttled = allocs[i].itPowerAt(w, d, step)
				}
				var pue float64
				var renew units.Power
				if env != nil {
					pue = env.pue[i][envBase+k]
					renew = env.renew[i][envBase+k]
				} else {
					pue = d.Cooling.PUEAt(at)
					renew = d.Plant.PowerAt(at)
				}
				if fr != nil {
					// PV dropout: the plant produces, the DC cannot take it.
					renew = units.Power(float64(renew) * fr.pv[i])
				}
				facility := units.Power(float64(it) * pue)
				dec := d.Green.Step(facility, renew, at, dt)
				slotEnergy[i] += dec.Demand
				if !measured {
					continue
				}
				res.ThrottledCoreSec += throttled * dt
				slotCost += dec.Cost
				res.CostPerDC[i] += dec.Cost
				res.GridEnergy += dec.Grid()
				res.RenewableUsed += dec.RenewableUsed
				res.RenewableLost += dec.RenewableLost
				res.BatteryOut += dec.BatteryOut
			}
			k++
		}
		if epoch != nil {
			// Charge the slot's executed moves: transfer energy lands in the
			// per-DC slot energy (so the totals and the demand predictor see
			// it) priced at the current tariffs, downtime in the per-DC
			// response adjustment below.
			slotCost += epoch.chargeMoves(res, placement.Moves, in.Prices, slotEnergy, measured)
		}
		var slotTotal units.Energy
		for i := range fleet {
			lastEnergy[i] = slotEnergy[i]
			if measured {
				res.EnergyPerDC[i] += slotEnergy[i]
			}
			slotTotal += slotEnergy[i]
		}
		if measured {
			res.TotalEnergy += slotTotal
			res.OpCost += slotCost
			res.CostSeries.Append(float64(sl), float64(slotCost))
			res.EnergySeries.Append(float64(sl), slotTotal.GJ())
		}

		// Response time of the slot: actual volumes aggregated by DC pair
		// (Eq. 1). Migration images are *not* added here — the paper's QoS
		// constraint already bounds them to 2% of the slot, and response
		// time is defined as "the amount of time [VMs] have to wait for
		// data from other VMs", i.e. application traffic only.
		for i := range vol {
			clear(vol[i])
		}
		for _, e := range w.Volumes(sl) {
			// Range-check before indexing: replayed CSV traces may name
			// out-of-range endpoints.
			if e.From < 0 || e.From >= numVMs || e.To < 0 || e.To >= numVMs {
				continue
			}
			if !activeSet[e.From] || !activeSet[e.To] {
				continue
			}
			from, to := placement.DCOf[e.From], placement.DCOf[e.To]
			vol[from][to] += e.Vol
			if !measured {
				continue
			}
			if from == to {
				res.IntraBytes += e.Vol
			} else {
				res.CrossBytes += e.Vol
			}
		}
		if fr != nil {
			// Shard rebuilds flow through the same volume matrix as user
			// traffic, so repair congestion lands in Eq. 1's worst case.
			fr.applyRepair(ids, vol, res, measured)
		}
		if measured {
			for j := 0; j < n; j++ {
				resp := net.DestLatency(j, vol)
				if epoch != nil {
					// Arriving migrations pause their VMs: the destination's
					// slot sample carries the charged downtime.
					resp += epoch.downtime[j]
				}
				if fr != nil {
					// Stranded VMs are unreachable for the slot.
					resp += fr.downtime[j]
				}
				res.RespSamples = append(res.RespSamples, resp)
				res.RespSummary.Add(resp)
			}
			if epoch != nil {
				epoch.accumulate(slotCost, slotTotal, placement.Moves, placement.Rejected)
			}
		}

		// Learn: forecasters see the slot's realized PV intake.
		for i, d := range fleet {
			pvE := units.Energy(0)
			if env != nil {
				pvE = env.pv[i][sl]
			} else {
				pvE = d.Plant.SlotEnergy(sl)
			}
			if fr != nil {
				pvE = units.Energy(float64(pvE) * fr.pv[i])
			}
			d.Forecast.Observe(sl, pvE)
		}

		// Carry placement.
		for id, dcIdx := range placement.DCOf {
			current[id] = dcIdx
		}
	}
	if measuredSlots := int(sc.Horizon.Slots) - sc.WarmupSlots; measuredSlots > 0 {
		res.MeanActiveServers = activeServerSum / float64(measuredSlots)
	}
	if epoch != nil {
		res.Epochs = epoch.stats
	}
	if fr != nil {
		res.DataLossProb = fr.lossProb()
		// Restore the fleet's healthy sizes: the caller's scenario object
		// outlives the run.
		for i, d := range fleet {
			d.Servers = fr.baseServers[i]
		}
		net.SetDegrade(nil)
	}
	res.FinalPlacement = make(map[int]int, len(current))
	for id, d := range current {
		res.FinalPlacement[id] = d
	}
	return res, nil
}

// allocView caches an allocation in a form the fine loop can evaluate
// quickly: per server, the member VM ids and the DVFS level.
type allocView struct {
	servers []serverView
}

type serverView struct {
	vms   []int
	level int
}

// reset refills the view in place, reusing the servers slice.
func (v *allocView) reset(a alloc.Result) {
	if cap(v.servers) < len(a.Servers) {
		v.servers = make([]serverView, len(a.Servers))
	}
	v.servers = v.servers[:len(a.Servers)]
	for s, srv := range a.Servers {
		v.servers[s] = serverView{vms: srv.VMs, level: srv.Level}
	}
}

// itPowerAt returns the DC's IT power at the fine step plus the throttled
// demand (reference cores beyond the packed servers' capacity) — the
// synthesize-on-demand path for non-compiled workloads.
func (v *allocView) itPowerAt(w trace.Source, d *dc.DC, step timeutil.Step) (units.Power, float64) {
	var total units.Power
	var throttled float64
	for _, srv := range v.servers {
		var load float64
		for _, id := range srv.vms {
			load += w.Util(id, step)
		}
		capS := d.Model.Capacity(srv.level)
		if load > capS {
			throttled += load - capS
		}
		total += d.Model.Power(srv.level, load)
	}
	return total, throttled
}

// finePlan holds the per-DC per-step IT power and throttled demand of one
// slot, evaluated in a single pass over the compiled utilization rows. The
// buffers are reused across slots; the per-server load scratch lives in a
// pool because the per-DC evaluations may run on concurrent shards.
type finePlan struct {
	steps     int
	dt        float64
	itPower   [][]units.Power // [dc][step]
	throttled [][]float64     // [dc][step]
	srvLoad   sync.Pool       // *[]float64, [step] scratch for one server
}

func newFinePlan(n, steps int, dt float64) *finePlan {
	p := &finePlan{
		steps:     steps,
		dt:        dt,
		itPower:   make([][]units.Power, n),
		throttled: make([][]float64, n),
	}
	p.srvLoad.New = func() any {
		buf := make([]float64, steps)
		return &buf
	}
	for i := 0; i < n; i++ {
		p.itPower[i] = make([]units.Power, steps)
		p.throttled[i] = make([]float64, steps)
	}
	return p
}

// evaluate fills the plan for slot sl. Per server it accumulates the member
// VMs' fine rows — read from rows, the resident table or a chunk cursor
// positioned on sl — then folds capacity and the power model per step: the
// same additions in the same order as the per-step itPowerAt path, so the
// two produce bit-identical results. DCs are sharded over the run's worker
// budget: each shard writes only its own DCs' rows, so any worker count
// produces the serial result.
func (p *finePlan) evaluate(rows trace.FineRows, c *trace.Compiled, fleet dc.Fleet, allocs []allocView, sl timeutil.Slot, workers *par.Budget) {
	par.For(workers, len(fleet), 1, func(lo, hi int) {
		buf := p.srvLoad.Get().(*[]float64)
		load := *buf
		defer p.srvLoad.Put(buf)
		for i := lo; i < hi; i++ {
			d := fleet[i]
			itp := p.itPower[i]
			thr := p.throttled[i]
			clear(itp)
			clear(thr)
			for _, srv := range allocs[i].servers {
				clear(load)
				for _, id := range srv.vms {
					row := rows.FineRow(id, sl)
					if row == nil {
						// A VM the table does not cover (a policy allocating
						// a never-active id): read the source at the exact
						// steps the fine loop derives.
						start := sl.Seconds()
						k := 0
						for t := 0.0; t < timeutil.SlotSeconds; t += p.dt {
							step := timeutil.Step(int64(start+t) / timeutil.StepSeconds)
							load[k] += c.Util(id, step)
							k++
						}
						continue
					}
					for k := range load {
						load[k] += row[k]
					}
				}
				capS := d.Model.Capacity(srv.level)
				for k := range load {
					if load[k] > capS {
						thr[k] += load[k] - capS
					}
					itp[k] += d.Model.Power(srv.level, load[k])
				}
			}
		}
	})
}
