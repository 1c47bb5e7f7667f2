package trace

import (
	"reflect"
	"testing"

	"geovmp/internal/timeutil"
)

func testCompiled(t *testing.T) (*Workload, *Compiled) {
	t.Helper()
	w := New(Config{Seed: 9, Horizon: timeutil.Hours(6), InitialVMs: 40})
	c := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300})
	return w, c
}

// TestCompiledSourceViews asserts every Source method of a compiled trace
// reproduces the underlying workload exactly.
func TestCompiledSourceViews(t *testing.T) {
	w, c := testCompiled(t)
	if c.NumVMs() != w.NumVMs() || c.Slots() != w.Slots() {
		t.Fatal("shape drifted")
	}
	for sl := timeutil.Slot(0); sl < w.Slots(); sl++ {
		if !reflect.DeepEqual(c.ActiveVMs(sl), w.ActiveVMs(sl)) {
			t.Fatalf("ActiveVMs(%d) differ", sl)
		}
		if !reflect.DeepEqual(c.Volumes(sl), w.Volumes(sl)) {
			t.Fatalf("Volumes(%d) differ", sl)
		}
		obs := sl
		if sl > 0 {
			obs = sl - 1
		}
		if !reflect.DeepEqual(c.PlannedVolumes(obs, sl), w.PlannedVolumes(obs, sl)) {
			t.Fatalf("PlannedVolumes(%d,%d) differ", obs, sl)
		}
		for _, id := range w.ActiveVMs(sl) {
			if got, want := c.SlotProfile(id, obs, 12), w.SlotProfile(id, obs, 12); !reflect.DeepEqual(got, want) {
				t.Fatalf("SlotProfile(%d,%d) = %v, want %v", id, obs, got, want)
			}
			if c.Image(id) != w.Image(id) {
				t.Fatalf("Image(%d) differs", id)
			}
		}
	}
}

// TestCompiledFineRows asserts the fine table reproduces the simulator's
// step derivation exactly, including its floating-point time accumulation.
func TestCompiledFineRows(t *testing.T) {
	w, c := testCompiled(t)
	dt, steps := c.FineParams()
	if dt != 300 || steps != 12 {
		t.Fatalf("fine params = (%v, %d)", dt, steps)
	}
	for sl := timeutil.Slot(0); sl < w.Slots(); sl++ {
		start := sl.Seconds()
		for _, id := range w.ActiveVMs(sl) {
			row := c.FineRow(id, sl)
			if len(row) != steps {
				t.Fatalf("FineRow(%d,%d) len = %d", id, sl, len(row))
			}
			k := 0
			for ts := 0.0; ts < timeutil.SlotSeconds; ts += dt {
				step := timeutil.Step(int64(start+ts) / timeutil.StepSeconds)
				if row[k] != w.Util(id, step) {
					t.Fatalf("FineRow(%d,%d)[%d] = %v, want Util %v", id, sl, k, row[k], w.Util(id, step))
				}
				k++
			}
		}
	}
}

// TestCompiledFallbacks asserts off-pattern queries fall through to the
// underlying source instead of misreading the tables.
func TestCompiledFallbacks(t *testing.T) {
	w, c := testCompiled(t)
	// Planned volumes with a non-simulator observation slot.
	if got, want := c.PlannedVolumes(3, 5), w.PlannedVolumes(3, 5); !reflect.DeepEqual(got, want) {
		t.Fatal("off-pattern PlannedVolumes differ from source")
	}
	// A profile length the table was not compiled for.
	id := w.ActiveVMs(0)[0]
	if got, want := c.SlotProfile(id, 0, 5), w.SlotProfile(id, 0, 5); !reflect.DeepEqual(got, want) {
		t.Fatal("off-samples SlotProfile differs from source")
	}
	// Arbitrary Util steps delegate.
	if c.Util(id, 17) != w.Util(id, 17) {
		t.Fatal("Util differs from source")
	}
	// FineRow outside any window is nil, not garbage.
	if c.FineRow(id, w.Slots()+5) != nil {
		t.Fatal("FineRow past the horizon should be nil")
	}
	if c.FineRow(-1, 0) != nil {
		t.Fatal("FineRow of a negative id should be nil")
	}
}

// TestCompiledSlotProfileOwnership asserts SlotProfile returns a copy, per
// the Source contract, while ProfileRow shares the table.
func TestCompiledSlotProfileOwnership(t *testing.T) {
	w, c := testCompiled(t)
	id := w.ActiveVMs(0)[0]
	p := c.SlotProfile(id, 0, 12)
	p[0] = 99
	if c.SlotProfile(id, 0, 12)[0] == 99 {
		t.Fatal("SlotProfile leaked the compiled row")
	}
	row := c.ProfileRow(id, 0)
	if row == nil {
		t.Fatal("ProfileRow missing for an active VM")
	}
	if !reflect.DeepEqual(row, w.SlotProfile(id, 0, 12)) {
		t.Fatal("ProfileRow differs from the source profile")
	}
}

// TestCompiledFineTableBudget asserts a budget below the fine table moves
// it out of core without breaking the Source view: FineRow serves nothing
// (rows come from a FineCursor), Util still delegates, and the cursor's
// rows equal the unbounded table's.
func TestCompiledFineTableBudget(t *testing.T) {
	w := New(Config{Seed: 9, Horizon: timeutil.Hours(3), InitialVMs: 20})
	resident := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300})
	c := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300, MaxFineTableBytes: 1})
	id := w.ActiveVMs(0)[0]
	if c.FineRow(id, 0) != nil {
		t.Fatal("an out-of-core fine table should not serve FineRow")
	}
	if c.Util(0, 3) != w.Util(0, 3) {
		t.Fatal("Util must still delegate")
	}
	cur := c.NewFineCursor(nil)
	cur.Advance(0)
	if !reflect.DeepEqual(cur.FineRow(id, 0), resident.FineRow(id, 0)) {
		t.Fatal("streamed fine row differs from the resident one")
	}
}

// TestCompileOfReplay covers the CSV-replay source: compiling it must
// preserve its views (the profile tables take the generic fill path).
func TestCompileOfReplay(t *testing.T) {
	w := New(Config{Seed: 4, Horizon: timeutil.Hours(4), InitialVMs: 15})
	dir := t.TempDir()
	if err := ExportReplay(w, dir, 4, 12); err != nil {
		t.Fatal(err)
	}
	r, err := LoadReplay(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(r, CompileOptions{Samples: 12, FineStepSec: 300})
	for sl := timeutil.Slot(0); sl < r.Slots(); sl++ {
		for _, id := range r.ActiveVMs(sl) {
			if !reflect.DeepEqual(c.SlotProfile(id, sl, 12), r.SlotProfile(id, sl, 12)) {
				t.Fatalf("replay profile (%d,%d) differs after compile", id, sl)
			}
		}
		if !reflect.DeepEqual(c.Volumes(sl), r.Volumes(sl)) {
			t.Fatalf("replay volumes (%d) differ after compile", sl)
		}
	}
}
