package trace

import (
	"reflect"
	"testing"

	"geovmp/internal/timeutil"
)

// chunkedPair compiles the same workload twice: unbounded (resident
// tables) and with a 1-byte budget pinned to `width`-slot chunks (both
// tables streamed).
func chunkedPair(t *testing.T, width int) (*Workload, *Compiled, *Compiled) {
	t.Helper()
	w := New(Config{Seed: 21, Horizon: timeutil.Hours(9), InitialVMs: 30, MeanLifeSlots: 3})
	res := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300})
	chk := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300, MaxFineTableBytes: 1, ChunkSlots: width})
	if !chk.FineChunked() || !chk.ProfileChunked() {
		t.Fatalf("1-byte budget should chunk both tables (fine=%v prof=%v)",
			chk.FineChunked(), chk.ProfileChunked())
	}
	if res.FineChunked() || res.ProfileChunked() {
		t.Fatal("unbounded compile should stay resident")
	}
	return w, res, chk
}

// TestFineCursorMatchesResident asserts the streamed fine rows are
// byte-identical to the resident table at every (vm, slot), for chunk
// widths that divide, straddle and exceed the horizon.
func TestFineCursorMatchesResident(t *testing.T) {
	for _, width := range []int{1, 2, 4, 64} {
		w, res, chk := chunkedPair(t, width)
		if got := chk.FineChunkSlots(); got != min(width, int(w.Slots())) {
			t.Fatalf("width %d: FineChunkSlots = %d", width, got)
		}
		cur := chk.NewFineCursor(nil)
		if cur == nil {
			t.Fatal("chunked table must hand out a cursor")
		}
		if res.NewFineCursor(nil) != nil {
			t.Fatal("resident table must not hand out a cursor")
		}
		for sl := timeutil.Slot(0); sl < w.Slots(); sl++ {
			cur.Advance(sl)
			for _, id := range w.ActiveVMs(sl) {
				got := cur.FineRow(id, sl)
				want := res.FineRow(id, sl)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("width %d: fine row (%d,%d) = %v, want %v", width, id, sl, got, want)
				}
			}
		}
		// The chunked compile keeps no resident fine rows.
		if chk.FineRow(w.ActiveVMs(0)[0], 0) != nil {
			t.Fatal("chunked FineRow should be nil on the Compiled itself")
		}
	}
}

// TestProfileCursorMatchesResident asserts the streamed observation-slot
// profiles are byte-identical to the resident table over the simulator's
// access pattern (obs = max(sl-1, 0) for ids active at sl).
func TestProfileCursorMatchesResident(t *testing.T) {
	for _, width := range []int{1, 3, 64} {
		w, res, chk := chunkedPair(t, width)
		cur := chk.NewProfileCursor(nil)
		if cur == nil {
			t.Fatal("chunked table must hand out a cursor")
		}
		if res.NewProfileCursor(nil) != nil {
			t.Fatal("resident table must not hand out a cursor")
		}
		for sl := timeutil.Slot(0); sl < w.Slots(); sl++ {
			obs := obsSlot(sl)
			cur.Advance(obs)
			for _, id := range w.ActiveVMs(sl) {
				got := cur.ProfileRow(id, obs)
				want := res.ProfileRow(id, obs)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("width %d: profile row (%d,%d) = %v, want %v", width, id, obs, got, want)
				}
			}
		}
	}
}

// TestChunkWidthFromBudget asserts the derived chunk width scales with the
// budget: a budget covering k slot-peaks yields a k-slot window, floored
// at one slot.
func TestChunkWidthFromBudget(t *testing.T) {
	w := New(Config{Seed: 3, Horizon: timeutil.Hours(8), InitialVMs: 25})
	base := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300})
	fineBytes, _ := base.TableBytes()
	if fineBytes <= 0 {
		t.Fatal("expected a non-empty fine table")
	}
	// Half the full table forces chunking with a window of >= 1 slot.
	c := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300, MaxFineTableBytes: fineBytes / 2})
	if !c.FineChunked() {
		t.Fatal("half budget should chunk the fine table")
	}
	if got := c.FineChunkSlots(); got < 1 || got >= int(w.Slots()) {
		t.Fatalf("chunk width %d out of (0, slots)", got)
	}
	// A 1-byte budget bottoms out at one slot, never zero.
	c1 := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300, MaxFineTableBytes: 1})
	if got := c1.FineChunkSlots(); got != 1 {
		t.Fatalf("1-byte budget chunk width = %d, want 1", got)
	}
}

// TestCompileFastPathRespectsBudget covers the already-compiled fast path:
// recompiling with a different fine-table configuration must produce a new
// Compiled, not return the old one (the pre-fix behavior ignored the
// budget and handed back whatever was compiled first).
func TestCompileFastPathRespectsBudget(t *testing.T) {
	w := New(Config{Seed: 5, Horizon: timeutil.Hours(6), InitialVMs: 20})
	resident := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300})

	// Same options: reuse.
	if again := Compile(resident, CompileOptions{Samples: 12, FineStepSec: 300}); again != resident {
		t.Fatal("identical options must reuse the compiled trace")
	}

	// Tiny budget: the resident compile is incompatible.
	chunked := Compile(resident, CompileOptions{Samples: 12, FineStepSec: 300, MaxFineTableBytes: 1})
	if chunked == resident {
		t.Fatal("budgeted recompile returned the unbounded table")
	}
	if !chunked.FineChunked() {
		t.Fatal("budgeted recompile should be chunked")
	}

	// Same budget again: the chunked compile is compatible with itself.
	if again := Compile(chunked, CompileOptions{Samples: 12, FineStepSec: 300, MaxFineTableBytes: 1}); again != chunked {
		t.Fatal("identical budgeted options must reuse the compiled trace")
	}
}
