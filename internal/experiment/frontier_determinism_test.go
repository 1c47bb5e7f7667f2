package experiment

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"geovmp/internal/config"
	"geovmp/internal/core"
	"geovmp/internal/policy"
	"geovmp/internal/timeutil"
)

// frontierGridSpec is the reduced dynamic preset the frontier-facing
// determinism tests sweep: small fleet, short horizon, epoch machinery on.
func frontierGridSpec(t *testing.T) config.Spec {
	t.Helper()
	spec, err := config.Preset("geo5dc-dynamic")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 0.01
	spec.Seed = 11
	spec.Horizon = timeutil.Hours(6)
	spec.FineStepSec = 600
	return spec
}

// TestParetoSearchDeterministic runs the metaheuristic policy — the
// frontier's search baseline, whose multi-start perturbation is the most
// randomness-hungry code the engine drives — against the proposed
// controller at Parallelism 1, 2 and GOMAXPROCS+6, and requires
// byte-identical ResultSet JSON. This lives here (not in the root package)
// so the CI race job's -race build covers the whole search under
// contention, like the epoch engine's determinism test.
func TestParetoSearchDeterministic(t *testing.T) {
	spec := frontierGridSpec(t)
	grid := func(parallelism int) Grid {
		return Grid{
			Scenarios: []config.Spec{spec},
			Policies: []PolicySpec{
				{Name: "Pareto-search", New: func(seed uint64) policy.Policy { return policy.NewParetoSearch(seed) }},
				{Name: "Proposed", New: func(seed uint64) policy.Policy { return core.New(0.9, seed) }},
			},
			SeedOffsets: []uint64{0, 1},
			Parallelism: parallelism,
		}
	}
	base, err := Run(context.Background(), grid(1))
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, err := base.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, runtime.GOMAXPROCS(0) + 6} {
		set, err := Run(context.Background(), grid(p))
		if err != nil {
			t.Fatal(err)
		}
		js, err := set.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(baseJSON, js) {
			t.Fatalf("Parallelism=%d: Pareto-search ResultSet differs from serial run", p)
		}
	}
}

// TestColumnsSharedAcrossRuns pins the multi-wave compile contract at the
// engine level: pre-compiled columns supplied through Grid.Columns are
// consumed verbatim (no recompilation), survive the run for reuse, and
// yield the same results as the engine's own lazy compile.
func TestColumnsSharedAcrossRuns(t *testing.T) {
	spec := frontierGridSpec(t)
	pols := []PolicySpec{
		{Name: "Proposed", New: func(seed uint64) policy.Policy { return core.New(0.9, seed) }},
	}
	offsets := []uint64{0, 1}

	// Lazy-compiled baseline.
	lazy, err := Run(context.Background(), Grid{
		Scenarios: []config.Spec{spec}, Policies: pols, SeedOffsets: offsets,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-compiled columns, swept twice (two "waves").
	columns := map[uint64]*Column{}
	before := CompileCount()
	for _, off := range offsets {
		col, err := CompileColumn(spec, spec.Seed+off, nil)
		if err != nil {
			t.Fatal(err)
		}
		columns[spec.Seed+off] = col
	}
	colFor := func(scenario string, seed uint64) *Column {
		if scenario != spec.Name {
			t.Fatalf("Columns asked for unknown scenario %q", scenario)
		}
		return columns[seed]
	}
	var waves []*Set
	for wave := 0; wave < 2; wave++ {
		set, err := Run(context.Background(), Grid{
			Scenarios: []config.Spec{spec}, Policies: pols, SeedOffsets: offsets,
			Columns: colFor,
		})
		if err != nil {
			t.Fatal(err)
		}
		waves = append(waves, set)
	}
	if got := CompileCount() - before; got != int64(len(offsets)) {
		t.Fatalf("compiled %d columns for 2 waves, want exactly %d (one per seed)", got, len(offsets))
	}
	for i, set := range waves {
		if !reflect.DeepEqual(lazy, set) {
			t.Fatalf("wave %d over shared columns differs from the lazily-compiled run", i)
		}
	}
	for seed, col := range columns {
		if col.src == nil || col.env == nil {
			t.Fatalf("column for seed %d was released by the engine; caller owns it", seed)
		}
	}
}

// TestChunkedColumnsSharedAndIdentical extends the column-sharing contract
// to out-of-core tables: a pre-compiled column whose fine/profile tables
// stream through chunk windows is shared across concurrent cells without
// recompilation (cursors are per-run, the chunked Compiled is read-only),
// and the swept ResultSet is byte-identical to the unbounded in-core grid.
func TestChunkedColumnsSharedAndIdentical(t *testing.T) {
	spec := frontierGridSpec(t)
	pols := []PolicySpec{
		{Name: "Proposed", New: func(seed uint64) policy.Policy { return core.New(0.9, seed) }},
		{Name: "EnerAware", New: func(seed uint64) policy.Policy { return policy.EnerAware{} }},
	}
	offsets := []uint64{0, 1}

	// Unbounded in-core baseline, serial.
	incore, err := Run(context.Background(), Grid{
		Scenarios: []config.Spec{spec}, Policies: pols, SeedOffsets: offsets,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := incore.JSON()
	if err != nil {
		t.Fatal(err)
	}

	// A 1-byte budget forces both tables out of core.
	chunked := spec
	chunked.MaxFineTableBytes = 1
	columns := map[uint64]*Column{}
	for _, off := range offsets {
		col, err := CompileColumn(chunked, chunked.Seed+off, nil)
		if err != nil {
			t.Fatal(err)
		}
		if col.src.FineChunkSlots() == 0 {
			t.Fatal("column's fine table is not streamed under a 1-byte budget")
		}
		columns[chunked.Seed+off] = col
	}
	before := CompileCount()
	set, err := Run(context.Background(), Grid{
		Scenarios: []config.Spec{chunked}, Policies: pols, SeedOffsets: offsets,
		Parallelism: runtime.GOMAXPROCS(0) + 6,
		Columns:     func(_ string, seed uint64) *Column { return columns[seed] },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := CompileCount() - before; got != 0 {
		t.Fatalf("engine recompiled %d chunked columns; want 0", got)
	}
	js, err := set.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, js) {
		t.Fatal("chunked-column sweep differs from the unbounded in-core grid")
	}
}

// failAt wraps a policy: at slot `at` its Place calls hook, then returns
// an empty placement when fail is set, which fails the run.
type failAt struct {
	policy.Policy
	at   timeutil.Slot
	hook func()
	fail bool
}

func (f *failAt) Place(in *policy.Input) policy.Placement {
	if in.Slot == f.at {
		f.hook()
		if f.fail {
			return policy.Placement{}
		}
	}
	return f.Policy.Place(in)
}

// TestStreamedColumnFailureReleasesWindows runs grids over one streamed
// column that end early — cancelled mid-run, or with a cell whose policy
// fails — and requires that the column is left with no live window and
// that a rerun over it is byte-identical to the in-core grid.
func TestStreamedColumnFailureReleasesWindows(t *testing.T) {
	spec := frontierGridSpec(t)
	pols := []PolicySpec{
		{Name: "Proposed", New: func(seed uint64) policy.Policy { return core.New(0.9, seed) }},
		{Name: "EnerAware", New: func(seed uint64) policy.Policy { return policy.EnerAware{} }},
	}
	incore, err := Run(context.Background(), Grid{Scenarios: []config.Spec{spec}, Policies: pols})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := incore.JSON()
	if err != nil {
		t.Fatal(err)
	}

	streamed := spec
	streamed.MaxFineTableBytes = 1
	col, err := CompileColumn(streamed, streamed.Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if col.src.FineChunkSlots() == 0 {
		t.Fatal("column's fine table is not streamed under a 1-byte budget")
	}
	grid := func(first PolicySpec) Grid {
		return Grid{
			Scenarios:   []config.Spec{streamed},
			Policies:    []PolicySpec{first, pols[1]},
			Parallelism: 2,
			Columns:     func(string, uint64) *Column { return col },
		}
	}
	wrap := func(fail bool, hook func()) PolicySpec {
		return PolicySpec{Name: "Proposed", New: func(seed uint64) policy.Policy {
			return &failAt{Policy: core.New(0.9, seed), at: 3, hook: hook, fail: fail}
		}}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := Run(ctx, grid(wrap(false, cancel))); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled grid returned %v", err)
	}
	if n := col.src.LiveWindows(); n != 0 {
		t.Fatalf("cancelled grid left %d live windows", n)
	}
	if _, err := Run(context.Background(), grid(wrap(true, func() {}))); err == nil || !strings.Contains(err.Error(), "unplaced") {
		t.Fatalf("grid with a failing policy returned %v", err)
	}
	if n := col.src.LiveWindows(); n != 0 {
		t.Fatalf("failed grid left %d live windows", n)
	}

	set, err := Run(context.Background(), grid(pols[0]))
	if err != nil {
		t.Fatal(err)
	}
	js, err := set.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, js) {
		t.Fatal("rerun over the streamed column differs from the in-core grid")
	}
}

// TestJSONSortsCellsOnExport pins the small-fix satellite: the export is
// sorted by grid coordinates even when the in-memory cell slice has been
// reordered (e.g. by a future completion-order collector).
func TestJSONSortsCellsOnExport(t *testing.T) {
	spec := frontierGridSpec(t)
	set, err := Run(context.Background(), Grid{
		Scenarios: []config.Spec{spec},
		Policies: []PolicySpec{
			{Name: "Proposed", New: func(seed uint64) policy.Policy { return core.New(0.9, seed) }},
		},
		SeedOffsets: []uint64{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := set.JSON()
	if err != nil {
		t.Fatal(err)
	}
	// Scramble the backing order; the Index fields still carry the grid
	// coordinates, so the export must not move.
	for i, j := 0, len(set.Cells)-1; i < j; i, j = i+1, j-1 {
		set.Cells[i], set.Cells[j] = set.Cells[j], set.Cells[i]
	}
	got, err := set.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("JSON export depends on the in-memory cell order")
	}
}
