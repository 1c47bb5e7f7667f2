// Package config builds ready-to-run scenarios: the paper's Table I fleet
// (Lisbon / Zurich / Helsinki with 1500/1000/500 servers, 150/100/50 kWp PV
// and 960/720/480 kWh batteries at 50% DoD), its workload parameters, and
// proportionally scaled-down variants for fast experimentation and tests.
//
// Every call constructs fresh mutable state (battery banks, forecasters,
// green controllers), so one Spec can mint an identical-but-independent
// scenario per policy — the comparison discipline the paper's evaluation
// relies on.
package config

import (
	"fmt"
	"math"

	"geovmp/internal/battery"
	"geovmp/internal/cooling"
	"geovmp/internal/dc"
	"geovmp/internal/fault"
	"geovmp/internal/green"
	"geovmp/internal/network"
	"geovmp/internal/par"
	"geovmp/internal/power"
	"geovmp/internal/sim"
	"geovmp/internal/solar"
	"geovmp/internal/storage"
	"geovmp/internal/timeutil"
	"geovmp/internal/trace"
	"geovmp/internal/units"
)

// ForecastKind selects the renewable forecaster (ablation A5).
type ForecastKind int

// Forecaster choices.
const (
	ForecastWCMA ForecastKind = iota // the paper's [21] default
	ForecastEWMA
	ForecastLastValue
	ForecastOracle
)

// Spec parameterizes scenario construction. Zero values select the paper's
// Table I world; write variants as literals, or start from Preset and set
// fields. A Spec keeps the slices it is given (Sites, ClassWeights,
// EpochClassWeights, Templates, Faults.Outages) without copying them:
// building and sweeping only read them, so specs may share one.
type Spec struct {
	// Name labels the scenario in results and reports (default
	// "paper-geo3dc", or the preset's name).
	Name string
	// Scale multiplies Table I fleet sizes and energy sources; 1.0 is the
	// paper's setup, 0.1 a laptop-fast variant with identical structure.
	Scale float64
	// Seed drives all randomness (workload, network, controllers).
	Seed uint64
	// Horizon is the experiment duration in one-hour slots (Week, Days,
	// Hours); it defaults to the paper's one week.
	Horizon timeutil.Horizon
	// VMsPerServer sizes the workload relative to the fleet (default 7
	// initial VMs per server).
	VMsPerServer float64
	// FineStepSec is the green controller period (default 5 s, the
	// paper's; tests use 60 s for speed). Any non-positive value selects
	// the default — a zero-length step cannot be simulated.
	FineStepSec float64
	// QoS is the migration latency guarantee (default 0.98). Zero means
	// unset; a negative value disables the guarantee entirely (the
	// per-link migration budget spans the whole slot), mirroring
	// WarmupSlots' negative-disables convention.
	QoS float64
	// Forecast selects the renewable forecaster (default WCMA).
	Forecast ForecastKind
	// BatteryScale additionally scales battery capacity (ablation A4);
	// 0 means 1.0, and BatteryZero gives the battery-free ablation.
	BatteryScale float64
	// Sites replaces the Table I fleet with a custom site list (see
	// TableISites for the default expressed as one).
	Sites []Site
	// Topo overrides the inter-DC topology. Nil derives it: the paper's
	// backbone for the Table I fleet, a great-circle mesh for custom
	// Sites.
	Topo *network.Topology
	// ClassWeights overrides the synthetic workload's class mix in class
	// order (websearch, mapreduce, hpc, batch).
	ClassWeights []float64
	// WarmupSlots are simulated but excluded from metrics (0 selects the
	// simulator default of 6; negative disables warmup).
	WarmupSlots int
	// ProfileSamples is the per-slot downsampled CPU-profile length the
	// policies observe (0 selects the simulator default of 12; negative
	// gives the controllers empty profiles — the blind-controller
	// ablation).
	ProfileSamples int
	// Workload, when non-nil, replaces the synthetic generator (for
	// example a replayed trace loaded with trace.LoadReplay). It must be
	// safe for concurrent readers when used in a parallel sweep.
	Workload trace.Source
	// ReplayDir, when set, loads the workload from a replay CSV directory
	// (vms.csv / profiles.csv / volumes.csv) with trace.LoadReplay at build
	// time, so its errors surface from Build. A non-nil Workload wins over
	// it. Multi-seed sweeps should load once and set Workload so the files
	// are not re-read per column.
	ReplayDir string
	// TraceVMsFile and TraceCPUFile, when both set, ingest an
	// Azure/Google-style cluster trace — VM lifetimes plus per-interval
	// CPU readings — at build time (trace.IngestCluster with defaults).
	// Mutually exclusive with ReplayDir; a non-nil Workload wins.
	TraceVMsFile string
	TraceCPUFile string
	// Templates calibrates the synthetic generator to usage templates
	// fitted from a real trace (trace.FitTemplates): new services draw a
	// template by weight and member VMs parameterize around the fitted
	// values. Empty keeps the paper's synthetic families bit-identical.
	Templates []trace.UsageTemplate
	// MaxFineTableBytes bounds each compiled utilization table
	// (trace.CompileOptions.MaxFineTableBytes): 0 selects the compiler's
	// 256 MiB default; negative is invalid. Tables over the budget stream
	// through cursors, in windows the budget sizes, instead of residing in
	// memory; results stay byte-identical to the unbounded path.
	MaxFineTableBytes int64
	// Epochs splits the horizon into rolling-horizon re-optimization
	// epochs: the controllers are signalled at each interior boundary and
	// re-optimize warm-started from the carried state, the per-epoch
	// migration budget resets, and results (and the ResultSet JSON) carry a
	// per-epoch breakdown. 0 or 1 with a zero Migration budget is the
	// static path, byte-identical to a spec without these fields.
	Epochs int
	// Migration parameterizes the epoch engine's migration accounting
	// (per-epoch move budget, transfer energy, downtime). Setting any
	// field activates the engine even at Epochs <= 1.
	Migration sim.MigrationBudget
	// EpochClassWeights optionally schedules synthetic class-mix regimes
	// (class order as ClassWeights): the horizon is partitioned into
	// len(rows) equal phases and VMs arriving within a phase draw from its
	// row, so the fleet's mix shifts across the horizon. The row count is
	// independent of Epochs — presets set them equal so the workload's
	// regime shifts land exactly on the engine's re-optimization
	// boundaries, but an epochs=1 run over the same shifting workload is
	// valid (and is how the epoch engine's value is measured).
	EpochClassWeights [][]float64
	// ArrivalWave modulates the synthetic arrival rate diurnally with the
	// given amplitude in [0, 1); 0 keeps arrivals stationary.
	ArrivalWave float64
	// FastMath opts controllers into their approximate fast-numeric paths
	// (peak coincidence over quantized profiles, frozen embedding peers).
	// Default off: unset runs stay bit-identical to prior releases. Results
	// stay deterministic at any worker count. The per-pair kernel error is
	// bounded by correlation.FastEps; see PERFORMANCE.md for the end-to-end
	// metric tolerance.
	FastMath bool
	// Faults injects a deterministic failure schedule (internal/fault):
	// explicit outage windows plus per-day stochastic rates for server,
	// DC, link and PV failures. The zero config disables injection and
	// keeps every run byte-identical to a spec without the field.
	Faults fault.Config
	// Storage attaches the replicated / erasure-coded data-placement
	// model (internal/storage), adding data-loss risk and repair-traffic
	// accounting to faulty runs. The zero config disables it.
	Storage storage.Config
}

// DefaultScenarioName labels unnamed specs: the paper's Table I world.
const DefaultScenarioName = "paper-geo3dc"

func (s *Spec) applyDefaults() {
	if s.Name == "" {
		s.Name = DefaultScenarioName
	}
	if s.Scale == 0 {
		s.Scale = 1
	}
	if s.Horizon.Slots == 0 {
		s.Horizon = timeutil.Week()
	}
	if s.VMsPerServer == 0 {
		s.VMsPerServer = 7
	}
	if s.QoS == 0 {
		s.QoS = 0.98
	}
	if s.BatteryScale == 0 {
		s.BatteryScale = 1
	}
}

// newForecaster builds the selected forecaster for a plant.
func newForecaster(kind ForecastKind, plant solar.Plant) solar.Forecaster {
	switch kind {
	case ForecastEWMA:
		return solar.NewEWMA(0.5)
	case ForecastLastValue:
		return &solar.LastValue{}
	case ForecastOracle:
		return &solar.Oracle{Plant: plant}
	default:
		return solar.NewWCMA(4, 0.7)
	}
}

// Validate checks the spec's declarative fields — sites, class mixes,
// epoch schedule, arrival wave, scale — without building anything. Build
// and NewWorkload call it; it is also the spec-validation fuzzing surface.
func (s Spec) Validate() error {
	s.applyDefaults()
	// The comparisons are written to reject NaN too: a NaN scale or wave
	// passes any single `< 0` test and then corrupts every table sized
	// from it.
	if !(s.Scale >= 0) || math.IsInf(s.Scale, 0) {
		return fmt.Errorf("config: bad scale %v", s.Scale)
	}
	if math.IsNaN(s.VMsPerServer) || math.IsInf(s.VMsPerServer, 0) {
		return fmt.Errorf("config: bad VMsPerServer %v", s.VMsPerServer)
	}
	if s.Horizon.Slots < 0 {
		return fmt.Errorf("config: negative horizon %d", s.Horizon.Slots)
	}
	sites := s.Sites
	if len(sites) == 0 {
		sites = TableISites()
	}
	for i, st := range sites {
		if st.Servers <= 0 {
			return fmt.Errorf("config: site %d (%q) has no servers", i, st.Name)
		}
		switch st.City {
		case "", "lisbon", "zurich", "helsinki":
		default:
			return fmt.Errorf("config: site %d (%q) names unknown city %q (have lisbon, zurich, helsinki; leave empty for the generic models)", i, st.Name, st.City)
		}
	}
	if err := validateClassWeights(s.ClassWeights, "ClassWeights"); err != nil {
		return err
	}
	if s.Epochs < 0 {
		return fmt.Errorf("config: negative epoch count %d", s.Epochs)
	}
	if s.MaxFineTableBytes < 0 {
		return fmt.Errorf("config: negative fine-table budget %d", s.MaxFineTableBytes)
	}
	if !(s.ArrivalWave >= 0 && s.ArrivalWave < 1) {
		return fmt.Errorf("config: ArrivalWave %v outside [0, 1)", s.ArrivalWave)
	}
	// Charging fields may be negative (the disable convention) but must be
	// finite: one +Inf move would turn every downstream total into +Inf,
	// and NaN would silently disable the charge instead of erroring.
	if math.IsNaN(s.Migration.EnergyPerGB) || math.IsInf(s.Migration.EnergyPerGB, 0) {
		return fmt.Errorf("config: bad Migration.EnergyPerGB %v", s.Migration.EnergyPerGB)
	}
	if math.IsNaN(s.Migration.DowntimeSec) || math.IsInf(s.Migration.DowntimeSec, 0) {
		return fmt.Errorf("config: bad Migration.DowntimeSec %v", s.Migration.DowntimeSec)
	}
	for e, row := range s.EpochClassWeights {
		if len(row) == 0 {
			return fmt.Errorf("config: empty EpochClassWeights[%d] row", e)
		}
		if err := validateClassWeights(row, fmt.Sprintf("EpochClassWeights[%d]", e)); err != nil {
			return err
		}
	}
	if (s.TraceVMsFile == "") != (s.TraceCPUFile == "") {
		return fmt.Errorf("config: TraceVMsFile and TraceCPUFile must be set together")
	}
	if s.ReplayDir != "" && s.TraceVMsFile != "" {
		return fmt.Errorf("config: ReplayDir and TraceVMsFile/TraceCPUFile are mutually exclusive")
	}
	if err := s.Faults.Validate(len(sites)); err != nil {
		return err
	}
	if err := s.Storage.Validate(len(sites)); err != nil {
		return err
	}
	return nil
}

// Build constructs a complete scenario from the spec. Each call returns
// independent mutable state.
func Build(spec Spec) (*sim.Scenario, error) {
	spec.applyDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sites := spec.Sites
	topo := spec.Topo
	if len(sites) == 0 {
		sites = TableISites()
		if topo == nil {
			topo = network.PaperTopology()
		}
	}
	if topo == nil {
		topo = MeshTopology(sites)
	}
	fleet := make(dc.Fleet, len(sites))
	for i, st := range sites {
		st.applyDefaults()
		climate, plant, tariff := st.models()
		servers := scaledSiteServers(st, spec.Scale)
		plant.Peak = units.Power(st.PVkWp*spec.Scale) * units.Kilowatt
		battKWh := st.BattKWh
		if battKWh <= 0 {
			battKWh = BatteryZero
		}
		bank, err := battery.New(battery.Config{
			Capacity:   units.Energy(battKWh*spec.Scale*spec.BatteryScale) * units.KilowattHour,
			DoD:        0.5,
			InitialSoC: 0.75,
		})
		if err != nil {
			return nil, err
		}
		fleet[i] = &dc.DC{
			Index:    i,
			Name:     st.Name,
			Servers:  servers,
			Model:    power.E5410(),
			Cooling:  cooling.Site{Climate: climate, Model: cooling.DefaultPUE()},
			Plant:    plant,
			Bank:     bank,
			Tariff:   tariff,
			Forecast: newForecaster(spec.Forecast, plant),
			Green:    &green.Controller{Tariff: tariff, Bank: bank},
		}
	}

	w := spec.Workload
	if w == nil {
		var err error
		if w, err = newWorkload(spec, fleet.TotalServers()); err != nil {
			return nil, err
		}
	}

	return &sim.Scenario{
		Name:           spec.Name,
		Fleet:          fleet,
		Workload:       w,
		Topo:           topo,
		Horizon:        spec.Horizon,
		Seed:           spec.Seed,
		QoS:            spec.QoS,
		ProfileSamples: spec.ProfileSamples,
		FineStepSec:    spec.FineStepSec,
		WarmupSlots:    spec.WarmupSlots,
		Epochs:         spec.Epochs,
		Migration:      spec.Migration,
		FastMath:       spec.FastMath,
		Faults:         spec.Faults,
		Storage:        spec.Storage,
	}, nil
}

// BatteryZero is a convenience spec mutation for the battery ablation: a
// near-zero battery (exactly zero capacity would divide the C-rate away, so
// use a vanishingly small bank).
const BatteryZero = 1e-6

// validateClassWeights checks one class-mix row; label names the field in
// error messages (the stationary mix or one epoch's row).
func validateClassWeights(weights []float64, label string) error {
	n := len(weights)
	if n == 0 {
		return nil
	}
	if n != int(trace.NumClasses) {
		return fmt.Errorf("config: %s has %d entries, want %d", label, n, trace.NumClasses)
	}
	positive := false
	for i, wgt := range weights {
		if wgt < 0 || math.IsNaN(wgt) || math.IsInf(wgt, 0) {
			return fmt.Errorf("config: bad class weight %v at %s[%d]", wgt, label, i)
		}
		positive = positive || wgt > 0
	}
	if !positive {
		return fmt.Errorf("config: %s has no positive entry", label)
	}
	return nil
}

// newWorkload synthesizes the spec's workload for a fleet of totalServers.
// Callers have validated the spec. The epoch class-mix schedule becomes a
// phase list partitioning the horizon into len(rows) equal windows with
// the same floor arithmetic as sim.EpochPlan — so when the row count
// equals Epochs (as the presets arrange, with Epochs within the horizon)
// the regime shifts land exactly on the boundaries the rolling engine
// re-optimizes at. The row count is deliberately independent of Epochs;
// see Spec.EpochClassWeights.
func newWorkload(spec Spec, totalServers int) (trace.Source, error) {
	if spec.ReplayDir != "" {
		return trace.LoadReplay(spec.ReplayDir)
	}
	if spec.TraceVMsFile != "" {
		return trace.IngestCluster(spec.TraceVMsFile, spec.TraceCPUFile, trace.IngestOptions{
			Samples: sim.ResolveProfileSamples(spec.ProfileSamples),
		})
	}
	initialVMs := int(math.Round(float64(totalServers) * spec.VMsPerServer))
	if initialVMs < 10 {
		initialVMs = 10
	}
	var phases []trace.PhaseMix
	if rows := spec.EpochClassWeights; len(rows) > 0 {
		phases = make([]trace.PhaseMix, len(rows))
		for e, row := range rows {
			phases[e] = trace.PhaseMix{
				FromSlot: timeutil.Slot(int64(e) * int64(spec.Horizon.Slots) / int64(len(rows))),
				Weights:  row,
			}
		}
	}
	return trace.New(trace.Config{
		Seed:         spec.Seed,
		Horizon:      spec.Horizon,
		InitialVMs:   initialVMs,
		ClassWeights: spec.ClassWeights,
		Phases:       phases,
		ArrivalWave:  spec.ArrivalWave,
		Templates:    spec.Templates,
	}), nil
}

// scaledSiteServers is the one place the per-site server scaling lives:
// Build sizes the fleet with it and NewWorkload sizes the workload, so the
// two can never drift apart.
func scaledSiteServers(st Site, scale float64) int {
	return int(math.Max(1, math.Round(float64(st.Servers)*scale)))
}

// scaledServers totals scaledSiteServers over the spec's sites.
func scaledServers(spec Spec) int {
	sites := spec.Sites
	if len(sites) == 0 {
		sites = TableISites()
	}
	total := 0
	for _, st := range sites {
		total += scaledSiteServers(st, spec.Scale)
	}
	return total
}

// NewWorkload returns the workload the spec describes: spec.Workload when
// set, otherwise the synthetic generator sized for the spec's fleet —
// exactly the workload Build would install.
func NewWorkload(spec Spec) (trace.Source, error) {
	spec.applyDefaults()
	if spec.Workload != nil {
		return spec.Workload, nil
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return newWorkload(spec, scaledServers(spec))
}

// CompileWorkload materializes NewWorkload(spec) into an immutable compiled
// trace (trace.Compile) aligned with the spec's profile-sampling and
// fine-step parameters, so the simulator consumes it entirely from flat
// arrays. The result is safe for concurrent readers; the experiment engine
// compiles one per scenario x seed and shares it across that cell column's
// policy runs. The optional worker budget shards the table builds
// (byte-identical output at any worker count; nil compiles serially).
func CompileWorkload(spec Spec, workers *par.Budget) (*trace.Compiled, error) {
	spec.applyDefaults()
	w, err := NewWorkload(spec)
	if err != nil {
		return nil, err
	}
	opt := sim.CompileOptions(sim.ResolveProfileSamples(spec.ProfileSamples), sim.ResolveFineStep(spec.FineStepSec))
	opt.MaxFineTableBytes, opt.Workers = spec.MaxFineTableBytes, workers
	return trace.Compile(w, opt), nil
}
