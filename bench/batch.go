package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"geovmp"
	"geovmp/internal/config"
	"geovmp/internal/experiment"
	"geovmp/internal/par"
	"geovmp/internal/policy"
	"geovmp/internal/sim"
	"geovmp/internal/timeutil"
	"geovmp/internal/trace"
)

// batchWorkload is a sweep of the batch engine as a researcher runs one:
// set-up compiles the grid's columns (each scenario x seed workload and
// environment) once, and every measured round then runs the whole grid —
// policies x seed columns — over them with Parallelism = procs.
type batchWorkload struct {
	id        string
	preset    string
	scale     float64 // 0 keeps the preset's scale
	horizon   geovmp.Horizon
	fineStep  float64 // green-controller step in seconds; 0 keeps the paper's 5 s
	migration geovmp.MigrationBudget
	policies  []string // names from geovmp.StandardPolicies; nil runs all four
	seeds     int      // seed columns per round
}

var (
	// The paper's week: Table I fleet, the 5 s green step, four policies.
	// The fine table is over the compile budget, so every cell re-streams
	// it through chunk cursors; the embedding is a small share of the work.
	paperWeek = batchWorkload{id: "paper-week", preset: "paper-geo3dc", scale: 0.02,
		horizon: geovmp.Week(), seeds: 1}
	// A wide grid of small faulty fleets: exact (dense) embedding with
	// epoch-boundary re-optimisation, and the migration write path —
	// budgeted revision, evacuations and RS(2,2) repair.
	dynamicFaulty = batchWorkload{id: "dynamic-faulty", preset: "geo5dc-faulty", scale: 0.015,
		horizon: geovmp.Week(), fineStep: 300,
		migration: geovmp.MigrationBudget{MaxMovesPerEpoch: 200}, seeds: 4}
	// The global phase at paper scale (~12.6k VMs, sampled embedding) in
	// one cell, so the engine lends the spare workers to intra-cell
	// sharding; the fine loop and trace streaming are negligible here.
	largeGlobal = batchWorkload{id: "large-global", preset: "geo5dc-large",
		horizon: geovmp.HoursOf(36), fineStep: 900, policies: []string{"Proposed"}, seeds: 1}
)

func (w batchWorkload) name() string { return w.id }

func (w batchWorkload) spec(seed uint64) geovmp.Spec {
	spec := geovmp.MustPreset(w.preset)
	if w.scale > 0 {
		spec.Scale = w.scale
	}
	spec.Seed = seed
	spec.Horizon = w.horizon
	spec.FineStepSec = w.fineStep
	spec.Migration = w.migration
	return spec
}

// grid is one round's sweep with unwrapped policies.
func (w batchWorkload) grid(spec geovmp.Spec, cols map[uint64]*experiment.Column, procs int) experiment.Grid {
	var pols []experiment.PolicySpec
	for _, ps := range geovmp.StandardPolicies(0.9) {
		if w.policies == nil || slices.Contains(w.policies, ps.Name) {
			pols = append(pols, ps)
		}
	}
	offsets := make([]uint64, w.seeds)
	for k := range offsets {
		offsets[k] = uint64(k)
	}
	return experiment.Grid{
		Scenarios:   []config.Spec{spec},
		Policies:    pols,
		SeedOffsets: offsets,
		Parallelism: procs,
		Columns:     func(_ string, seed uint64) *experiment.Column { return cols[seed] },
	}
}

// compile builds every column of the grid, recording one span per column.
func (w batchWorkload) compile(spec geovmp.Spec, procs int, tr *tracer) (map[uint64]*experiment.Column, map[uint64]uint64, error) {
	cols := map[uint64]*experiment.Column{}
	spans := map[uint64]uint64{}
	for k := 0; k < w.seeds; k++ {
		seed := spec.Seed + uint64(k)
		t0 := time.Now()
		col, err := experiment.CompileColumn(spec, seed, par.NewBudget(procs-1))
		if err != nil {
			return nil, nil, fmt.Errorf("compile column %s/%d: %w", spec.Name, seed, err)
		}
		id := tr.id()
		tr.add(id, "column.compile", fmt.Sprintf("%s/%d", spec.Name, seed), 0, t0, time.Now())
		cols[seed], spans[seed] = col, id
	}
	return cols, spans, nil
}

type cellStat struct {
	p   *probe
	res *sim.Result
}

type roundStat struct {
	wall      time.Duration
	cells     []cellStat
	export    []byte
	attempted int
	failed    int
}

// round runs the grid once with every policy wrapped in a probe. parents
// maps a seed to its column's compile span.
func (w batchWorkload) round(spec geovmp.Spec, cols map[uint64]*experiment.Column, parents map[uint64]uint64, procs int, tr *tracer) (roundStat, error) {
	g := w.grid(spec, cols, procs)
	probes := map[string]*probe{}
	var mu sync.Mutex
	key := func(pol string, seed uint64) string { return fmt.Sprintf("%s/%s/%d", spec.Name, pol, seed) }
	for i, ps := range g.Policies {
		bare := ps.New
		g.Policies[i].New = func(seed uint64) policy.Policy {
			k := key(ps.Name, seed)
			p := newProbe(bare(seed), tr, k)
			mu.Lock()
			probes[k] = p
			mu.Unlock()
			return p
		}
	}
	var rs roundStat
	g.Progress = func(pr experiment.Progress) {
		now := time.Now()
		mu.Lock()
		p := probes[key(pr.Cell.Policy, pr.Cell.Seed)]
		mu.Unlock()
		if p == nil {
			return // the cell failed before its policy was built
		}
		p.finish(now, parents[pr.Cell.Seed])
		rs.cells = append(rs.cells, cellStat{p: p, res: pr.Cell.Result})
	}
	t0 := time.Now()
	set, err := experiment.Run(context.Background(), g)
	rs.wall = time.Since(t0)
	if set != nil {
		rs.attempted = len(set.Cells)
		for i := range set.Cells {
			if set.Cells[i].Err != nil {
				rs.failed++
			}
		}
	}
	if err != nil {
		return rs, err
	}
	rs.export, err = set.JSON()
	return rs, err
}

func (w batchWorkload) run(cfg runConfig) *report {
	r := newReport()
	spec := w.spec(cfg.seed)

	var cols map[uint64]*experiment.Column
	var compileSpans map[uint64]uint64
	setup, err := setUp(cfg.seconds/10, func() (err error) {
		cols, compileSpans, err = w.compile(spec, cfg.procs, cfg.tr)
		return err
	})
	if err != nil {
		r.check("set-up", err)
		return r
	}
	r.set("setup_s", setup)

	// A traced run first runs one untraced round: its export must equal
	// the traced rounds', and its rate is the baseline of the overhead.
	var ref *roundStat
	if cfg.tr != nil {
		rs, err := w.round(spec, cols, nil, cfg.procs, nil)
		r.attempted += rs.attempted
		r.failed += rs.failed
		if err != nil {
			r.check("untraced reference round", err)
			return r
		}
		ref = &rs
	}
	var rounds []roundStat
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < cfg.seconds {
		rs, err := w.round(spec, cols, compileSpans, cfg.procs, cfg.tr)
		r.attempted += rs.attempted
		r.failed += rs.failed
		if err != nil {
			r.check("every cell completes", err)
			return r
		}
		rounds = append(rounds, rs)
		runtime.GC() // outside the timed round: keep finished rounds out of the next one's peak RSS
	}
	r.check("every cell completes", nil)

	var tot batchTotals
	for _, rs := range rounds {
		tot.add(rs)
	}
	r.set("ops_per_s", float64(tot.cellSlots)/tot.wall.Seconds())
	r.notePct("proposed decision", tot.decisions, 50)
	r.notePct("proposed decision", tot.decisions, 99)
	setMaxRSS(r)
	r.note("%d rounds of %d cells, %d cell-slots in %.3f s", len(rounds), len(rounds[0].cells), tot.cellSlots, tot.wall.Seconds())

	r.check("every round's export is byte-identical", sameExports(rounds, ref))
	r.check("results are well-formed", checkResults(rounds))
	if cfg.seed == defaultSeed {
		r.check("export sha256 matches expected.json", checkExpected(w.id, rounds[0].export))
	}
	if cfg.tr != nil {
		if err := w.layers(r, tot, len(rounds), ref, spec, cfg); err != nil {
			r.check("per-layer measurement", err)
		}
	}
	return r
}

// batchTotals sums the measured rounds.
type batchTotals struct {
	wall                        time.Duration
	cellSlots, cells            int
	cellWall                    []float64 // s
	decisions, corePlaces       []float64 // ms, the proposed controller's measured slots
	cellWallSum                 float64
	corePlace, policyPlace      float64 // s
	allocate, embed, boundary   float64 // s
	iters, vmSlots, overflow    int
	active                      int
	moves, rejected, evacuation int
}

func (t *batchTotals) add(rs roundStat) {
	t.wall += rs.wall
	for _, c := range rs.cells {
		p := c.p
		t.cells++
		t.cellSlots += p.slots
		t.cellWall = append(t.cellWall, p.wall().Seconds())
		t.cellWallSum += p.wall().Seconds()
		t.allocate += p.allocNS.Seconds()
		t.vmSlots += p.vmSlots
		t.overflow += p.overflow
		t.active += p.active
		if p.ctl != nil {
			t.decisions = append(t.decisions, p.decisions...)
			t.corePlaces = append(t.corePlaces, p.places...)
			t.corePlace += p.placeNS.Seconds()
			t.embed += float64(p.ctl.EmbedNS) / 1e9
			t.boundary += float64(p.ctl.BoundaryEmbedNS) / 1e9
			t.iters += p.iters
		} else {
			t.policyPlace += p.placeNS.Seconds()
		}
		if c.res != nil {
			t.moves += c.res.Migrations
			t.rejected += c.res.MigRejected
			t.evacuation += c.res.Evacuations
		}
	}
}

// layers reports the per-layer breakdown of a traced run, per measured
// round.
func (w batchWorkload) layers(r *report, t batchTotals, rounds int, ref *roundStat, spec geovmp.Spec, cfg runConfig) error {
	n := float64(rounds)
	r.set("sim.self_s", (t.cellWallSum-t.corePlace-t.policyPlace-t.allocate)/n)
	r.set("sim.vm_slots", float64(t.vmSlots)/n)
	r.set("embed.run_s", t.embed/n)
	r.set("embed.boundary_s", t.boundary/n)
	r.set("embed.iters", float64(t.iters)/n)
	r.set("core.place_s", t.corePlace/n)
	r.setPct("core.place_ms_p50", t.corePlaces, 50)
	r.setPct("core.place_ms_p99", t.corePlaces, 99)
	r.set("core.place_n", float64(len(t.corePlaces)))
	r.set("core.self_s", (t.corePlace-t.embed)/n)
	r.set("policy.place_s", t.policyPlace/n)
	r.set("alloc.allocate_s", t.allocate/n)
	r.set("alloc.overflowed", float64(t.overflow)/n)
	r.set("alloc.active_servers_mean", float64(t.active)/float64(max(t.cellSlots, 1)))
	r.set("migrate.moves", float64(t.moves)/n)
	r.set("migrate.rejected", float64(t.rejected)/n)
	if t.moves+t.rejected > 0 {
		r.set("migrate.accept_ratio", float64(t.moves)/float64(t.moves+t.rejected))
	}
	r.set("fault.evacuations", float64(t.evacuation)/n)
	r.set("experiment.cells", float64(t.cells)/n)
	r.set("experiment.cell_s_p50", median(t.cellWall))
	r.set("experiment.cell_s_max", maxOf(t.cellWall))
	r.set("experiment.idle_s", (float64(cfg.procs)*t.wall.Seconds()-t.cellWallSum)/n)
	var rt batchTotals
	rt.add(*ref)
	refRate := float64(rt.cellSlots) / rt.wall.Seconds()
	rate := float64(t.cellSlots) / t.wall.Seconds()
	r.set("bench.trace_overhead_pct", (refRate-rate)/refRate*100)

	// One more compile of the first column, then one serial pass of fresh
	// Fine and Profile cursors over it: what every cell of the column pays
	// to read its trace.
	spec.Seed = cfg.seed
	t0 := time.Now()
	src, err := config.CompileWorkload(spec, par.NewBudget(cfg.procs-1))
	if err != nil {
		return err
	}
	r.set("trace.compile_s", time.Since(t0).Seconds())
	t1 := time.Now()
	streamPass(src)
	r.set("trace.stream_pass_s", time.Since(t1).Seconds())
	fine, _ := src.TableBytes()
	r.set("trace.fine_table_mb", float64(fine)/(1<<20))
	return nil
}

// streamPass reads every active VM's fine row of every slot through fresh
// cursors, serially, the way one cell's fine loop does.
func streamPass(c *trace.Compiled) float64 {
	fine := c.NewFineCursor(nil)
	prof := c.NewProfileCursor(nil)
	var sink float64
	for sl := timeutil.Slot(0); sl < c.Slots(); sl++ {
		var rows trace.FineRows = c
		if fine != nil {
			fine.Advance(sl)
			rows = fine
		}
		if prof != nil {
			prof.Advance(sl)
		}
		for _, id := range c.ActiveVMs(sl) {
			if row := rows.FineRow(id, sl); len(row) > 0 {
				sink += row[0]
			}
		}
	}
	return sink
}

// sameExports checks that every measured round exported the same bytes as
// the first one, and as the untraced reference round when there is one.
func sameExports(rounds []roundStat, ref *roundStat) error {
	want := rounds[0].export
	if ref != nil && string(ref.export) != string(want) {
		return fmt.Errorf("traced export differs from the untraced one")
	}
	for i, rs := range rounds[1:] {
		if string(rs.export) != string(want) {
			return fmt.Errorf("round %d export differs from round 0", i+1)
		}
	}
	return nil
}

// checkResults checks every cell's result for finite positive cost and
// energy and a final placement inside the fleet.
func checkResults(rounds []roundStat) error {
	var errs []string
	for _, rs := range rounds {
		for _, c := range rs.cells {
			res := c.res
			if res == nil {
				errs = append(errs, c.p.traceID+": no result")
				continue
			}
			if cost := float64(res.OpCost); !(cost > 0) || math.IsInf(cost, 0) {
				errs = append(errs, fmt.Sprintf("%s: cost %v", c.p.traceID, cost))
			}
			if e := res.TotalEnergy.GJ(); !(e > 0) || math.IsInf(e, 0) {
				errs = append(errs, fmt.Sprintf("%s: energy %v GJ", c.p.traceID, e))
			}
			for id, d := range res.FinalPlacement {
				if d < 0 || d >= len(res.CostPerDC) {
					errs = append(errs, fmt.Sprintf("%s: VM %d in DC %d of %d", c.p.traceID, id, d, len(res.CostPerDC)))
					break
				}
			}
		}
	}
	return errList(errs)
}

// expected.json pins, per batch workload, the sha256 of one round's
// ResultSet export at the default seed, computed with unwrapped policies.
//
//go:embed expected.json
var expectedJSON []byte

func checkExpected(id string, export []byte) error {
	var want map[string]string
	if err := json.Unmarshal(expectedJSON, &want); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	sum := sha256.Sum256(export)
	got := hex.EncodeToString(sum[:])
	if want[id] != got {
		return fmt.Errorf("got %s, expected.json has %q", got, want[id])
	}
	return nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
