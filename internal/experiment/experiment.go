// Package experiment is the sweep engine behind the public geovmp.Experiment
// API: it executes a grid of scenarios x policies x seeds on a
// context-cancellable worker pool and collects the outcomes into a
// structured, deterministically-ordered Set.
//
// Every grid cell is hermetic — a fresh scenario replica (config.Build) and
// a fresh policy instance (PolicySpec.New) per cell — so cells can run on
// any schedule without sharing mutable state, and the result of a sweep is
// byte-identical whether it ran on one worker or sixteen.
//
// The workload is the exception, by design: the paper replays *the same*
// workload for every policy so metric differences are attributable to
// placement alone. The engine therefore materializes each scenario x seed's
// workload exactly once — compiled into immutable flat arrays
// (config.CompileWorkload) the first time any of that column's cells runs —
// and shares the read-only result across the column's policy runs. Cells
// still clone all mutable state: battery banks, forecasters, green
// controllers and the network RNG are rebuilt per cell.
package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"geovmp/internal/atomicfile"
	"geovmp/internal/config"
	"geovmp/internal/metrics"
	"geovmp/internal/par"
	"geovmp/internal/policy"
	"geovmp/internal/report"
	"geovmp/internal/sim"
	"geovmp/internal/trace"
)

// PolicySpec names a policy and constructs a fresh instance per grid cell.
// Fresh construction matters: the proposed controller carries per-slot
// state, so an instance must never be shared between runs.
type PolicySpec struct {
	Name string
	New  func(seed uint64) policy.Policy
	// Ref, when non-nil, is the policy's serializable form: a distributed
	// sweep ships Ref over the wire instead of New (a closure cannot
	// travel), and the worker reconstructs an equivalent instance from it.
	// In-process runs ignore it. A PolicySpec without a Ref cannot be
	// scheduled through a dist coordinator.
	Ref *PolicyRef
}

// PolicyRef is the wire form of a policy constructor: a registered kind
// plus its scalar knobs. The distributed runner's worker side resolves it
// through its kind registry (internal/dist), yielding a constructor that
// builds the same policy New would — required for bit-identical merged
// results.
type PolicyRef struct {
	// Kind names a registered constructor family: "proposed", "ener",
	// "pri", "net", "paretosearch".
	Kind string `json:"kind"`
	// Alpha is the proposed controller's Eq. 5 energy-performance weight
	// (ignored by kinds without the knob).
	Alpha float64 `json:"alpha,omitempty"`
	// NoEmbedding disables the proposed controller's force-directed phase
	// (ablation A2).
	NoEmbedding bool `json:"no_embedding,omitempty"`
}

// Progress is one completion event of a running sweep.
type Progress struct {
	Done  int // cells finished so far (including failed ones)
	Total int // total cells in the grid
	Cell  *Cell
}

// Grid declares a sweep: every scenario is run under every policy for every
// seed offset.
type Grid struct {
	// Scenarios are the scenario specs, each carrying its own name and
	// base seed.
	Scenarios []config.Spec
	// Policies are the policy factories.
	Policies []PolicySpec
	// SeedOffsets are added to each scenario's base seed; empty means the
	// single offset 0.
	SeedOffsets []uint64
	// Parallelism is the sweep's total worker budget; <= 0 selects
	// GOMAXPROCS. It caps concurrently running cells AND the extra
	// goroutines those cells' intra-cell sharded passes (embedding,
	// clustering, fine-plan evaluation, workload compilation) may borrow:
	// min(Parallelism, cells) goroutines run cells, the remainder seeds a
	// shared par.Budget, and retiring cell workers donate their slot back —
	// so a narrow grid (few scenario x policy x seed cells, big fleets)
	// still saturates the budget, and cells x shards never oversubscribe
	// it. Results are byte-identical at any value.
	Parallelism int
	// Columns, when non-nil, supplies pre-compiled per-scenario x seed
	// state (CompileColumn): a column it returns non-nil for skips the
	// engine's own lazy compile and is NOT released when the column's
	// cells finish — the caller owns it and may hand it to further Runs.
	// This is how multi-wave drivers (the adaptive frontier) evaluate many
	// grids over one scenario x seed while compiling its workload and
	// environment exactly once.
	Columns func(scenario string, seed uint64) *Column
	// Progress, when non-nil, is called after each cell completes. Calls
	// are serialized but arrive in completion order, not grid order.
	Progress func(Progress)
	// Resume, when non-nil, preloads cells completed by an earlier sweep
	// (a checkpoint or ResultSet JSON export, see LoadCheckpoint): a cell
	// whose (scenario, policy, seed) identity matches a checkpointed row
	// carries that row as its Data instead of being recomputed. Because
	// the engine is deterministic, the merged export is byte-identical to
	// a from-scratch run.
	Resume *Checkpoint
}

// Cell is one (scenario, policy, seed) evaluation of the grid.
type Cell struct {
	Index    int    `json:"-"`
	Scenario string `json:"scenario"`
	Policy   string `json:"policy"`
	Seed     uint64 `json:"seed"` // absolute seed: scenario base + offset
	Result   *sim.Result
	Err      error
	// Data is the cell's flattened export row when the outcome arrived
	// already flattened — from a resume checkpoint or a remote dist
	// worker — instead of as a live Result. JSON export uses it verbatim;
	// Result-based accessors (Results, Aggregate) skip such cells.
	Data *CellData
}

// Done reports whether the cell has an outcome: a live Result, a
// preloaded/remote Data row, or a recorded error.
func (c *Cell) Done() bool { return c.Result != nil || c.Data != nil || c.Err != nil }

// Set is the structured outcome of a sweep: cell identities are filled for
// the whole grid even when a run was cancelled, so partial sets stay
// addressable. Cells are in deterministic grid order: scenario-major, then
// policy, then seed offset.
type Set struct {
	Scenarios   []string
	Policies    []string
	SeedOffsets []uint64
	Cells       []Cell
}

// grid index of (scenario si, policy pi, seed offset ki).
func (s *Set) index(si, pi, ki int) int {
	return (si*len(s.Policies)+pi)*len(s.SeedOffsets) + ki
}

// At returns the cell at scenario index si, policy index pi and seed offset
// index ki.
func (s *Set) At(si, pi, ki int) *Cell { return &s.Cells[s.index(si, pi, ki)] }

// scenarioIndex returns the index of the named scenario, or -1.
func (s *Set) scenarioIndex(name string) int {
	for i, n := range s.Scenarios {
		if n == name {
			return i
		}
	}
	return -1
}

// Results returns the completed results for one scenario and policy across
// all seeds, in seed-offset order. Failed or cancelled cells are skipped.
// Policy names may repeat in a grid; name lookup resolves to the first
// match — use At for positional access when names collide.
func (s *Set) Results(scenario, policyName string) []*sim.Result {
	si := s.scenarioIndex(scenario)
	if si < 0 {
		return nil
	}
	var out []*sim.Result
	for pi, p := range s.Policies {
		if p != policyName {
			continue
		}
		for ki := range s.SeedOffsets {
			if c := s.At(si, pi, ki); c.Result != nil {
				out = append(out, c.Result)
			}
		}
		break
	}
	return out
}

// Group buckets the completed cells by an arbitrary key — for example by
// scenario, by policy, or by scenario+policy.
func (s *Set) Group(key func(*Cell) string) map[string][]*Cell {
	out := map[string][]*Cell{}
	for i := range s.Cells {
		c := &s.Cells[i]
		if c.Result == nil {
			continue
		}
		k := key(c)
		out[k] = append(out[k], c)
	}
	return out
}

// Aggregate renders one scenario's mean +/- std per policy and headline
// metric across seeds. Rows are keyed by the grid's policy names (one row
// per PolicySpec), so variant grids — several specs constructing the same
// underlying controller under different names — aggregate per variant.
func (s *Set) Aggregate(scenario string) *report.Figure {
	f := &report.Figure{
		ID:      "aggregate",
		Title:   fmt.Sprintf("%s: Multi-seed aggregate over %d seeds", scenario, len(s.SeedOffsets)),
		Headers: []string{"method", "cost mean (EUR)", "cost std", "energy mean (GJ)", "energy std", "worst resp mean (s)", "worst resp std"},
	}
	si := s.scenarioIndex(scenario)
	if si < 0 {
		return f
	}
	for pi, name := range s.Policies {
		var cost, energy, resp metrics.Summary
		for ki := range s.SeedOffsets {
			c := s.At(si, pi, ki)
			// Aggregating from the flattened rows keeps resumed and
			// distributed cells (Data, no live Result) in the statistics;
			// for live cells Export flattens the identical float64 values.
			if c.Err != nil || !c.Done() {
				continue
			}
			row := c.Export()
			cost.Add(row.CostEUR)
			energy.Add(row.EnergyGJ)
			resp.Add(row.WorstRespS)
		}
		if cost.N() == 0 {
			continue
		}
		f.Rows = append(f.Rows, []string{
			name,
			fmt.Sprintf("%.2f", cost.Mean()), fmt.Sprintf("%.2f", cost.Std()),
			fmt.Sprintf("%.4f", energy.Mean()), fmt.Sprintf("%.4f", energy.Std()),
			fmt.Sprintf("%.2f", resp.Mean()), fmt.Sprintf("%.2f", resp.Std()),
		})
	}
	return f
}

// Err returns nil when every cell completed, and otherwise an error
// summarizing how many cells failed (first failure wrapped).
func (s *Set) Err() error {
	var first error
	failed := 0
	for i := range s.Cells {
		if s.Cells[i].Err != nil {
			failed++
			if first == nil {
				first = s.Cells[i].Err
			}
		}
	}
	if failed == 0 {
		return nil
	}
	return fmt.Errorf("experiment: %d/%d cells failed: %w", failed, len(s.Cells), first)
}

// CellData is the stable flattened export schema: one row per cell with the
// headline metrics. Rolling-horizon cells additionally carry the charged
// migration overhead and the per-epoch breakdown; static cells omit those
// fields, keeping the pre-epoch encoding byte-identical. It doubles as the
// wire and checkpoint row: dist workers ship it back to the coordinator,
// and LoadCheckpoint reads it back, so a merged or resumed export is built
// from exactly the bytes a single-process export would produce.
type CellData struct {
	Scenario          string      `json:"scenario"`
	Policy            string      `json:"policy"`
	Seed              uint64      `json:"seed"`
	Error             string      `json:"error,omitempty"`
	CostEUR           float64     `json:"cost_eur"`
	EnergyGJ          float64     `json:"energy_gj"`
	WorstRespS        float64     `json:"worst_resp_s"`
	MeanRespS         float64     `json:"mean_resp_s"`
	Migrations        int         `json:"migrations"`
	MigRejected       int         `json:"mig_rejected"`
	MeanActiveServers float64     `json:"mean_active_servers"`
	GridKWh           float64     `json:"grid_kwh"`
	RenewableUsedKWh  float64     `json:"renewable_used_kwh"`
	RenewableLostKWh  float64     `json:"renewable_lost_kwh"`
	BatteryOutKWh     float64     `json:"battery_out_kwh"`
	IntraGB           float64     `json:"intra_gb"`
	CrossGB           float64     `json:"cross_gb"`
	MigEnergyKWh      float64     `json:"mig_energy_kwh,omitempty"`
	MigDowntimeS      float64     `json:"mig_downtime_s,omitempty"`
	Evacuations       int         `json:"evacuations,omitempty"`
	StrandedVMSlots   int         `json:"stranded_vm_slots,omitempty"`
	RepairGB          float64     `json:"repair_gb,omitempty"`
	DataLossProb      float64     `json:"data_loss_prob,omitempty"`
	Epochs            []EpochData `json:"epochs,omitempty"`
}

// EpochData is one epoch of a rolling-horizon cell.
type EpochData struct {
	Epoch        int     `json:"epoch"`
	StartSlot    int     `json:"start_slot"`
	EndSlot      int     `json:"end_slot"`
	CostEUR      float64 `json:"cost_eur"`
	EnergyGJ     float64 `json:"energy_gj"`
	Migrations   int     `json:"migrations"`
	MigRejected  int     `json:"mig_rejected"`
	MigratedGB   float64 `json:"migrated_gb"`
	MigEnergyKWh float64 `json:"mig_energy_kwh"`
	MigDowntimeS float64 `json:"mig_downtime_s"`
}

// JSON renders the set as indented JSON: the grid axes plus one flattened
// row per cell. The encoding is deterministic in the grid: cells are sorted
// into grid order (scenario-major, then policy, then seed) on every export,
// independent of the completion order the workers happened to produce — so
// two sweeps of the same grid yield byte-identical output at any
// parallelism and golden files never churn on scheduling.
func (s *Set) JSON() ([]byte, error) { return s.marshal(false) }

// CheckpointJSON renders the set in the same schema as JSON but with only
// the completed cells present in the cells array — the checkpoint format a
// killed sweep resumes from (see LoadCheckpoint). A fully-completed set's
// CheckpointJSON equals its JSON byte for byte.
func (s *Set) CheckpointJSON() ([]byte, error) { return s.marshal(true) }

func (s *Set) marshal(completedOnly bool) ([]byte, error) {
	type setJSON struct {
		Scenarios   []string   `json:"scenarios"`
		Policies    []string   `json:"policies"`
		SeedOffsets []uint64   `json:"seed_offsets"`
		Cells       []CellData `json:"cells"`
	}
	out := setJSON{
		Scenarios:   s.Scenarios,
		Policies:    s.Policies,
		SeedOffsets: s.SeedOffsets,
		Cells:       make([]CellData, 0, len(s.Cells)),
	}
	ordered := make([]*Cell, len(s.Cells))
	for i := range s.Cells {
		ordered[i] = &s.Cells[i]
	}
	sort.SliceStable(ordered, func(a, b int) bool { return ordered[a].Index < ordered[b].Index })
	for _, c := range ordered {
		if completedOnly && c.Result == nil && c.Data == nil {
			continue
		}
		out.Cells = append(out.Cells, c.Export())
	}
	return json.MarshalIndent(out, "", "  ")
}

// Export flattens the cell into its stable JSON row. A cell carrying a
// preloaded Data row (checkpoint resume, remote worker) exports it
// verbatim; a cell with a live Result flattens it — both paths produce
// identical bytes for identical outcomes, which is what makes distributed
// merges and resumed sweeps byte-identical to in-process runs.
func (c *Cell) Export() CellData {
	if c.Data != nil {
		return *c.Data
	}
	row := CellData{Scenario: c.Scenario, Policy: c.Policy, Seed: c.Seed}
	if c.Err != nil {
		row.Error = c.Err.Error()
	}
	if r := c.Result; r != nil {
		row.CostEUR = float64(r.OpCost)
		row.EnergyGJ = r.TotalEnergy.GJ()
		row.WorstRespS = r.RespSummary.Max()
		row.MeanRespS = r.RespSummary.Mean()
		row.Migrations = r.Migrations
		row.MigRejected = r.MigRejected
		row.MeanActiveServers = r.MeanActiveServers
		row.GridKWh = r.GridEnergy.KWh()
		row.RenewableUsedKWh = r.RenewableUsed.KWh()
		row.RenewableLostKWh = r.RenewableLost.KWh()
		row.BatteryOutKWh = r.BatteryOut.KWh()
		row.IntraGB = r.IntraBytes.GB()
		row.CrossGB = r.CrossBytes.GB()
		row.MigEnergyKWh = r.MigEnergy.KWh()
		row.MigDowntimeS = r.MigDowntimeSec
		row.Evacuations = r.Evacuations
		row.StrandedVMSlots = r.StrandedVMSlots
		row.RepairGB = r.RepairBytes.GB()
		row.DataLossProb = r.DataLossProb
		for _, es := range r.Epochs {
			row.Epochs = append(row.Epochs, EpochData{
				Epoch:        es.Epoch,
				StartSlot:    es.StartSlot,
				EndSlot:      es.EndSlot,
				CostEUR:      float64(es.Cost),
				EnergyGJ:     es.Energy.GJ(),
				Migrations:   es.Migrations,
				MigRejected:  es.MigRejected,
				MigratedGB:   es.MigratedBytes.GB(),
				MigEnergyKWh: es.MigEnergy.KWh(),
				MigDowntimeS: es.MigDowntimeSec,
			})
		}
	}
	return row
}

// WriteJSON stores the JSON export and a trailing newline at path through
// atomicfile.Write, so a kill mid-write never leaves a truncated export for
// a resume to read.
func (s *Set) WriteJSON(path string) error {
	b, err := s.JSON()
	if err != nil {
		return err
	}
	return atomicfile.Write(path, append(b, '\n'))
}

// NewSet validates the grid's axes and decomposes it into its cell
// skeleton: every cell with its identity (scenario, policy, absolute seed)
// and grid index, in deterministic grid order, but no results yet. Run
// fills the skeleton in-process; a dist coordinator hands its cells out to
// remote workers instead and merges what comes back — both produce the
// same Set. When g.Resume is set, cells whose identity matches a
// checkpointed row are born completed with that row as Data.
func NewSet(g Grid) (*Set, error) {
	if len(g.Scenarios) == 0 {
		return nil, fmt.Errorf("experiment: no scenarios")
	}
	if len(g.Policies) == 0 {
		return nil, fmt.Errorf("experiment: no policies")
	}
	for _, p := range g.Policies {
		if p.New == nil {
			return nil, fmt.Errorf("experiment: policy %q has no constructor", p.Name)
		}
	}
	offsets := g.SeedOffsets
	if len(offsets) == 0 {
		offsets = []uint64{0}
	}
	set := &Set{
		Scenarios:   make([]string, len(g.Scenarios)),
		Policies:    make([]string, len(g.Policies)),
		SeedOffsets: append([]uint64(nil), offsets...),
	}
	seen := make(map[string]bool, len(g.Scenarios))
	for i, spec := range g.Scenarios {
		name := spec.Name
		if name == "" {
			name = config.DefaultScenarioName
		}
		if seen[name] {
			return nil, fmt.Errorf("experiment: duplicate scenario name %q (name-based Set accessors would hide all but the first)", name)
		}
		seen[name] = true
		set.Scenarios[i] = name
	}
	for i, p := range g.Policies {
		set.Policies[i] = p.Name
	}
	total := len(g.Scenarios) * len(g.Policies) * len(offsets)
	set.Cells = make([]Cell, total)
	for si := range g.Scenarios {
		for pi := range g.Policies {
			for ki, off := range offsets {
				idx := set.index(si, pi, ki)
				set.Cells[idx] = Cell{
					Index:    idx,
					Scenario: set.Scenarios[si],
					Policy:   set.Policies[pi],
					Seed:     g.Scenarios[si].Seed + off,
				}
			}
		}
	}
	if g.Resume != nil {
		// Grid-index order, so duplicate (scenario, policy, seed)
		// identities consume checkpoint occurrences in the same order the
		// checkpoint writer emitted them.
		for i := range set.Cells {
			c := &set.Cells[i]
			if row := g.Resume.take(c.Scenario, c.Policy, c.Seed); row != nil {
				c.Data = row
			}
		}
	}
	return set, nil
}

// Coords decomposes a cell's grid index back into its scenario, policy and
// seed-offset indices.
func (s *Set) Coords(idx int) (si, pi, ki int) {
	perPolicy := len(s.SeedOffsets)
	perScenario := len(s.Policies) * perPolicy
	return idx / perScenario, (idx % perScenario) / perPolicy, idx % perPolicy
}

// Run executes the grid. The returned Set always covers the full grid;
// cells that failed or were cancelled carry their error instead of a
// result. The returned error is nil only when every cell completed — a
// cancelled sweep returns the partially-filled Set together with an error
// wrapping ctx's cause.
func Run(ctx context.Context, g Grid) (*Set, error) {
	set, err := NewSet(g)
	if err != nil {
		return nil, err
	}
	offsets := set.SeedOffsets
	workers := g.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	total := len(set.Cells)
	cellWorkers := workers
	if cellWorkers > total {
		cellWorkers = total
	}
	// The rest of the Parallelism budget funds intra-cell sharding; a
	// retiring cell worker donates its slot so the tail of the sweep (and
	// any narrow grid) can go wide inside the remaining cells.
	budget := par.NewBudget(workers - cellWorkers)

	// Cells are enqueued column-major — all policies of one scenario x seed
	// column together — so a column's compiled tables are built, used and
	// released before the next column's are compiled; results stay in grid
	// order regardless (cells carry absolute indices).
	jobs := make(chan int, total)
	for si := range g.Scenarios {
		for ki := range offsets {
			for pi := range g.Policies {
				jobs <- (si*len(g.Policies)+pi)*len(offsets) + ki
			}
		}
	}
	close(jobs)

	// One shared workload per scenario x seed, compiled lazily by the first
	// cell of the column that runs; the other policies of the column reuse
	// the immutable result instead of re-synthesizing it. Each column
	// counts its outstanding cells so big grids release a column's tables
	// as soon as its last policy run finishes.
	shared := make([]sharedWorkload, len(g.Scenarios)*len(offsets))
	for i := range shared {
		shared[i].remaining.Store(int64(len(g.Policies)))
	}
	// An injected workload (and the environment, always) is seed-
	// independent, so such a scenario's seed columns collapse onto one
	// shared entry instead of re-compiling identical tables per seed.
	for si := range g.Scenarios {
		if g.Scenarios[si].Workload != nil {
			shared[si*len(offsets)].remaining.Store(int64(len(g.Policies) * len(offsets)))
		}
	}
	// Caller-owned pre-compiled columns slot in before the workers start:
	// their sharedWorkload entries are born ready and marked external so
	// neither the lazy compile nor the end-of-column release touches them.
	if g.Columns != nil {
		for si := range g.Scenarios {
			for ki, off := range offsets {
				if col := g.Columns(set.Scenarios[si], g.Scenarios[si].Seed+off); col != nil {
					s := &shared[si*len(offsets)+ki]
					s.col, s.external = col, true
				}
			}
		}
	}
	sharedFor := func(si, ki int) *sharedWorkload {
		if g.Scenarios[si].Workload != nil && !shared[si*len(offsets)+ki].external {
			ki = 0
		}
		return &shared[si*len(offsets)+ki]
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	done := 0
	perPolicy := len(offsets)
	perScenario := len(g.Policies) * perPolicy
	for w := 0; w < cellWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Out of jobs: this worker's slot funds intra-cell sharding in
			// the cells still running.
			defer budget.Release(1)
			for idx := range jobs {
				cell := &set.Cells[idx]
				si := idx / perScenario
				pi := (idx % perScenario) / perPolicy
				ki := idx % perPolicy
				wl := sharedFor(si, ki)
				if cell.Data != nil {
					// Preloaded from a resume checkpoint: the outcome is
					// already known, only the column bookkeeping runs.
					wl.done()
				} else if err := ctx.Err(); err != nil {
					cell.Err = err
					wl.done()
				} else {
					cell.Result, cell.Err = runCell(ctx, g.Scenarios[si], g.Policies[pi], cell.Seed, wl, budget)
				}
				if g.Progress != nil {
					mu.Lock()
					done++
					g.Progress(Progress{Done: done, Total: total, Cell: cell})
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return set, set.Err()
}

// Column is one scenario x seed's immutable compiled state — the workload's
// flat tables plus the environment series — packaged for reuse across
// sweeps. CompileColumn builds one; Grid.Columns feeds them back into Run.
// Columns are safe for concurrent readers and may back any number of
// concurrent or sequential sweeps of the same scenario x seed.
type Column struct {
	src *trace.Compiled
	env *sim.Environment
	fp  string
}

// Fingerprint identifies the spec x seed universe the column was compiled
// for — SpecFingerprint of the compile inputs. Dist workers compare it
// against a work item's fingerprint before running the cell, so a stale or
// schema-skewed worker rejects the item instead of silently producing
// wrong-universe results. Empty when the spec carried an injected
// in-process Workload, which has no portable identity.
func (c *Column) Fingerprint() string { return c.fp }

// SpecFingerprint is the portable identity of a scenario x seed universe:
// a hash of the spec's canonical JSON encoding at the given absolute seed.
// Both sides of the dist protocol compute it independently — the
// coordinator from the grid's spec, the worker from the spec it decoded
// off the wire — so any skew (version drift in the Spec schema, lossy
// transport, a mis-routed item) surfaces as a mismatch instead of a
// silently different world. Specs with an injected Workload have no
// portable identity and return an error.
func SpecFingerprint(spec config.Spec, seed uint64) (string, error) {
	if spec.Workload != nil {
		return "", fmt.Errorf("experiment: spec %q carries an injected workload, which has no portable fingerprint", spec.Name)
	}
	spec.Seed = seed
	b, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("experiment: fingerprint spec %q: %w", spec.Name, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16]), nil
}

// CompileColumn compiles spec's workload and environment for the given
// absolute seed, exactly as Run's lazy per-column compile would. Multi-wave
// drivers call it once per scenario x seed up front and supply the results
// through Grid.Columns, so wave N reuses wave 0's tables instead of
// recompiling them.
func CompileColumn(spec config.Spec, seed uint64, workers *par.Budget) (*Column, error) {
	fp, _ := SpecFingerprint(spec, seed) // empty for injected workloads
	spec.Seed = seed
	compiles.Add(1)
	src, err := config.CompileWorkload(spec, workers)
	if err != nil {
		return nil, err
	}
	spec.Workload = src
	sc, err := config.Build(spec)
	if err != nil {
		return nil, err
	}
	env := sim.CompileEnvironment(sc.Fleet, sc.Horizon, sc.FineStepSec, workers)
	return &Column{src: src, env: env, fp: fp}, nil
}

// RunOnColumn evaluates one cell over a pre-compiled column — the engine's
// own cell evaluator and the dist worker's execution path: fresh mutable
// scenario state and a fresh policy instance per call over the column's
// immutable tables, so results are bit-identical wherever it runs.
func RunOnColumn(ctx context.Context, spec config.Spec, ps PolicySpec, seed uint64, col *Column, workers *par.Budget) (*sim.Result, error) {
	spec.Seed = seed
	spec.Workload = col.src
	sc, err := config.Build(spec)
	if err != nil {
		return nil, err
	}
	sc.Env = col.env
	sc.Workers = workers
	pol := ps.New(seed)
	if pol == nil {
		return nil, fmt.Errorf("experiment: policy %q constructor returned nil", ps.Name)
	}
	return sim.RunCtx(ctx, sc, pol)
}

// compiles counts workload/environment compilations engine-wide — the lazy
// per-column ones plus CompileColumn calls. Tests read it through
// CompileCount to assert the sharing contract: one compile per scenario x
// seed, however many waves were swept over it.
var compiles atomic.Int64

// CompileCount returns the number of scenario x seed compilations performed
// so far, process-wide. The absolute value is meaningless; tests take
// deltas around the code under test.
func CompileCount() int64 { return compiles.Load() }

// sharedWorkload lazily compiles one scenario x seed's workload and
// environment (PUE / renewable / PV series) and hands the immutable results
// to every policy run of that grid column, dropping them once the column's
// last cell is done. External columns (Grid.Columns) arrive pre-filled and
// are never compiled or released here.
type sharedWorkload struct {
	once      sync.Once
	mu        sync.Mutex
	col       *Column
	err       error
	external  bool         // pre-filled by the caller; owned elsewhere
	remaining atomic.Int64 // cells of the column not yet finished
}

func (s *sharedWorkload) get(spec config.Spec, workers *par.Budget) (*Column, error) {
	s.once.Do(func() {
		if s.external {
			return
		}
		col, err := CompileColumn(spec, spec.Seed, workers)
		s.mu.Lock()
		s.col, s.err = col, err
		s.mu.Unlock()
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.col, s.err
}

// done marks one of the column's cells finished, releasing the compiled
// tables after the last one so a long sweep's memory follows its frontier.
// Externally-owned columns are left for their owner to reuse.
func (s *sharedWorkload) done() {
	if s.remaining.Add(-1) == 0 && !s.external {
		s.mu.Lock()
		s.col = nil
		s.mu.Unlock()
	}
}

// runCell evaluates one grid cell on fresh mutable state over the column's
// shared workload and environment, lending the run the sweep's shared
// worker budget for its intra-cell sharded passes.
func runCell(ctx context.Context, spec config.Spec, ps PolicySpec, seed uint64, wl *sharedWorkload, workers *par.Budget) (*sim.Result, error) {
	defer wl.done()
	spec.Seed = seed
	col, err := wl.get(spec, workers)
	if err != nil {
		return nil, err
	}
	return RunOnColumn(ctx, spec, ps, seed, col, workers)
}
