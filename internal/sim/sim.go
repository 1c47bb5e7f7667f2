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
// slots, and the workload and site models are read from compiled tables
// (trace.Compile, CompileEnvironment), so the per-step reads are slice
// indexing instead of trace synthesis.
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
	Name  string
	Fleet dc.Fleet
	// Workload feeds the run. The simulator reads it through compiled
	// tables (trace.Compile): a *trace.Compiled at the scenario's
	// ProfileSamples and FineStepSec is used as handed over, any other
	// source is compiled at the start of the run over the horizon's slots,
	// at the default fine-table budget.
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
	// series (CompileEnvironment). A table compiled for this fleet that
	// covers the horizon at the run's fine step is used as handed over;
	// when it is nil or mismatched the run compiles its own. The experiment
	// engine shares one per scenario x seed.
	Env *Environment
	// Workers optionally lends the run extra goroutines for its sharded
	// passes (the fine-plan evaluation, and the controller's embedding and
	// clustering via policy.Input). The experiment engine installs the
	// sweep's shared worker budget here so cells x intra-cell shards never
	// exceed the configured parallelism; nil runs everything serially.
	// Results are bit-identical at any worker count.
	Workers *par.Budget
	// FastMath opts controllers into their approximate fast-numeric paths
	// (peak coincidence over quantized profiles, frozen embedding peers);
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
	w := compileWorkload(sc)
	fleet := sc.Fleet
	n := len(fleet)
	numVMs := w.NumVMs()
	net := network.NewState(sc.Topo, rng.New(sc.Seed).Derive("network"))
	constraint := (1 - sc.QoS) * timeutil.SlotSeconds

	// Profile rows are shared without copying and fine-step utilization
	// rows feed the vectorized IT-power pass, both read through per-run
	// cursors advanced once per slot below: over a resident table a cursor
	// shares the compiled rows, over a streamed one it reads bounded
	// windows of byte-identical values, shared with the concurrent runs
	// of the same table.
	_, fineSteps := w.FineParams()
	fineCur := w.NewFineCursor(sc.Workers)
	defer fineCur.Close()
	profCur := w.NewProfileCursor(sc.Workers)
	defer profCur.Close()
	env := runEnvironment(sc)

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

	// Per-slot containers, allocated once and reused across slots. The
	// observed information alternates between two buffers: slot sl+1's is
	// built before slot sl's Place and previewed in in.Next, so the policy
	// can start on it while slot sl's phases still read sl's. What it
	// starts is joined before any return, so no goroutine or borrowed
	// worker outlives the run.
	var prevIDs []int
	activeSet := make([]bool, numVMs)
	var obs [2]policy.Lookahead
	for i := range obs {
		obs[i].Profiles, obs[i].Volumes = correlation.NewProfileSet(sc.ProfileSamples), correlation.NewDataMatrix()
		defer obs[i].Wait()
	}
	vmEnergy := make([]float64, numVMs)
	images := make([]units.DataSize, numVMs)
	for id := range images {
		images[id] = w.Image(id)
	}
	perCore := float64(fleet[0].Model.MarginalPower() + fleet[0].Model.IdleShare())
	in := &policy.Input{
		Current:       current,
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
	fine := newFinePlan(n, fineSteps)
	// Rolling-horizon engine state; nil on the static path, which must stay
	// byte-identical to the pre-epoch simulator.
	epoch := newEpochRun(sc, n)
	// Fault engine state; nil on fault-free runs, which must likewise
	// stay byte-identical.
	fr := newFaultRun(sc, n)
	if fr != nil {
		// Restore the fleet's healthy sizes on every exit, cancelled and
		// failed runs included: the caller's scenario outlives the run.
		defer func() {
			for i, d := range fleet {
				d.Servers = fr.baseServers[i]
			}
			net.SetDegrade(nil)
		}()
	}

	if sc.Horizon.Slots > 0 {
		if err := observe(&obs[0], w, profCur, 0); err != nil {
			return nil, err
		}
	}
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
		cur := &obs[sl%2]
		ids, ps := cur.ActiveVMs, cur.Profiles
		in.Next = nil
		if sl+1 < sc.Horizon.Slots {
			in.Next = &obs[(sl+1)%2]
			if err := observe(in.Next, w, profCur, sl+1); err != nil {
				return nil, err
			}
			in.Next.EpochStart = epoch.opens(sl + 1)
		}
		// Swap the active set to this slot's ids and clear the previous
		// slot's per-VM tables.
		for _, id := range prevIDs {
			activeSet[id] = false
			vmEnergy[id] = 0
		}
		for _, id := range ids {
			activeSet[id] = true
		}
		prevIDs = ids
		// Drop departed VMs from the carried placement.
		for id := range current {
			if !activeSet[id] {
				delete(current, id)
			}
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
		in.Profiles, in.Volumes = ps, cur.Volumes
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

		// Fine loop over [sl, sl+1): the per-step IT power comes from one
		// vectorized pass over the slot's fine rows, PUE and renewable
		// power from the environment table.
		fineCur.Advance(sl)
		fine.evaluate(fineCur, w, fleet, allocs, sl, sc.Workers)
		clear(slotEnergy)
		var slotCost units.Money
		dt := sc.FineStepSec
		start := sl.Seconds()
		envBase := int(sl) * env.steps
		k := 0
		for t := 0.0; t < timeutil.SlotSeconds; t += dt {
			at := start + t
			for i, d := range fleet {
				it, throttled := fine.itPower[i][k], fine.throttled[i][k]
				pue := env.pue[i][envBase+k]
				renew := env.renew[i][envBase+k]
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
			pvE := env.pv[i][sl]
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
	}
	res.FinalPlacement = make(map[int]int, len(current))
	for id, d := range current {
		res.FinalPlacement[id] = d
	}
	return res, nil
}

// observe fills o with slot sl's observed information: its active VMs,
// and the previous interval's loads and volumes (slot 0 bootstraps from
// itself). Ids index dense NumVMs-sized tables, so an out-of-contract
// source surfaces as an error, not a panic.
func observe(o *policy.Lookahead, w *trace.Compiled, profCur *trace.ProfileCursor, sl timeutil.Slot) error {
	ids := w.ActiveVMs(sl)
	for _, id := range ids {
		if id < 0 || id >= w.NumVMs() {
			return fmt.Errorf("sim: workload ActiveVMs(%d) returned id %d outside [0, %d)", sl, id, w.NumVMs())
		}
	}
	obsSlot := max(sl-1, 0)
	o.Slot, o.ActiveVMs = sl, ids
	o.Profiles.Reset()
	profCur.Advance(obsSlot)
	for _, id := range ids {
		// The row is nil only in a run without a profile table
		// (ProfileSamples < 0), whose controllers get empty profiles.
		o.Profiles.Add(id, profCur.ProfileRow(id, obsSlot))
	}
	o.Volumes.Reset()
	for _, e := range w.PlannedVolumes(obsSlot, sl) {
		o.Volumes.Add(e.From, e.To, e.Vol)
	}
	return nil
}

// CompileOptions returns the compile options whose tables a run reads as
// handed over, given its resolved profile length and fine step
// (ResolveProfileSamples, ResolveFineStep): no profile table for zero
// samples, and the default fine-table budget.
func CompileOptions(samples int, fineStepSec float64) trace.CompileOptions {
	if samples == 0 {
		samples = -1 // no profiles: tell Compile to skip the table
	}
	return trace.CompileOptions{Samples: samples, FineStepSec: fineStepSec}
}

// compileWorkload returns the run's workload as compiled tables:
// sc.Workload itself when it is a trace compiled with the scenario's
// CompileOptions, otherwise a compile of it at the default fine-table
// budget on the run's workers. A source longer than the horizon is
// compiled through a window over the horizon, so the cost follows the run
// rather than the source.
func compileWorkload(sc *Scenario) *trace.Compiled {
	opt := CompileOptions(sc.ProfileSamples, sc.FineStepSec)
	if c, ok := sc.Workload.(*trace.Compiled); ok {
		if dt, _ := c.FineParams(); dt == opt.FineStepSec && c.Samples() == opt.Samples {
			return c
		}
	}
	src := sc.Workload
	if src.Slots() > sc.Horizon.Slots {
		src = trace.Window(src, 0, sc.Horizon.Slots)
	}
	opt.Workers = sc.Workers
	return trace.Compile(src, opt)
}

// runEnvironment returns sc.Env when it was compiled for the fleet and
// covers the horizon at the run's fine step, and otherwise compiles the
// environment on the run's workers.
func runEnvironment(sc *Scenario) *Environment {
	if sc.Env.matches(sc.Fleet, sc.Horizon.Slots, sc.FineStepSec) {
		return sc.Env
	}
	return CompileEnvironment(sc.Fleet, sc.Horizon, sc.FineStepSec, sc.Workers)
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

// finePlan holds the per-DC per-step IT power and throttled demand of one
// slot, evaluated in a single pass over the compiled utilization rows. The
// buffers are reused across slots; the per-server scratch lives in a pool
// because the per-DC evaluations may run on concurrent shards.
type finePlan struct {
	steps     int
	itPower   [][]units.Power // [dc][step]
	throttled [][]float64     // [dc][step]
	scratch   sync.Pool       // *fineScratch
}

// fineScratch is one shard's per-step scratch: a server's summed load and
// a synthesized row for VMs the fine table does not cover.
type fineScratch struct {
	load, row []float64
}

func newFinePlan(n, steps int) *finePlan {
	p := &finePlan{
		steps:     steps,
		itPower:   make([][]units.Power, n),
		throttled: make([][]float64, n),
	}
	p.scratch.New = func() any {
		return &fineScratch{load: make([]float64, steps), row: make([]float64, steps)}
	}
	for i := 0; i < n; i++ {
		p.itPower[i] = make([]units.Power, steps)
		p.throttled[i] = make([]float64, steps)
	}
	return p
}

// evaluate fills the plan for slot sl. Per server it accumulates the member
// VMs' fine rows — read through rows, a cursor positioned on sl — in
// allocation order, then folds capacity and the power model per step: at
// every step the same additions in the same order as summing Util over the
// server's VMs at that step. DCs are sharded over the run's worker budget:
// each shard writes only its own DCs' rows, so any worker count produces
// the serial result.
func (p *finePlan) evaluate(rows *trace.FineCursor, c *trace.Compiled, fleet dc.Fleet, allocs []allocView, sl timeutil.Slot, workers *par.Budget) {
	par.For(workers, len(fleet), 1, func(lo, hi int) {
		buf := p.scratch.Get().(*fineScratch)
		load := buf.load
		defer p.scratch.Put(buf)
		for i := lo; i < hi; i++ {
			d := fleet[i]
			itp, thr := p.itPower[i][:len(load)], p.throttled[i][:len(load)]
			clear(itp)
			clear(thr)
			for _, srv := range allocs[i].servers {
				clear(load)
				for _, id := range srv.vms {
					row := rows.FineRow(id, sl)
					if row == nil {
						// A VM the table does not cover (a policy allocating
						// a never-active id): synthesize its row at the
						// slot's fine steps.
						row = buf.row
						c.FillFineRow(row, id, sl)
					}
					row = row[:len(load)]
					for k := range load {
						load[k] += row[k]
					}
				}
				curve := d.Model.Curve(srv.level)
				for k, x := range load {
					if x > curve.Capacity {
						thr[k] += x - curve.Capacity
					}
					itp[k] += curve.Power(x)
				}
			}
		}
	})
}
