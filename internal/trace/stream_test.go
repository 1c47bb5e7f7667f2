package trace

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"geovmp/internal/par"
	"geovmp/internal/timeutil"
)

// streamedPair compiles the same workload twice: unbounded (resident
// tables) and under the budget that budget derives from the resident
// compile.
func streamedPair(budget func(res *Compiled) int64) (*Workload, *Compiled, *Compiled) {
	w := New(Config{Seed: 21, Horizon: timeutil.Hours(9), InitialVMs: 30, MeanLifeSlots: 3})
	res := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300})
	chk := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300, MaxFineTableBytes: budget(res)})
	return w, res, chk
}

// TestFineCursorMatchesResident asserts the streamed fine rows are
// byte-identical to the resident table at every (vm, slot), for window
// widths that divide and straddle the horizon, each derived from a budget
// of k slot peaks.
func TestFineCursorMatchesResident(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		w, res, chk := streamedPair(func(res *Compiled) int64 { return int64(k) * res.fine.slotPeak })
		if got := chk.FineChunkSlots(); got != k {
			t.Fatalf("budget of %d slot peaks: FineChunkSlots = %d", k, got)
		}
		if res.FineChunkSlots() != 0 {
			t.Fatal("unbounded compile should stay resident")
		}
		cur := chk.NewFineCursor(nil)
		for sl := timeutil.Slot(0); sl < w.Slots(); sl++ {
			cur.Advance(sl)
			for _, id := range w.ActiveVMs(sl) {
				got := cur.FineRow(id, sl)
				want := res.FineRow(id, sl)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("width %d: fine row (%d,%d) = %v, want %v", k, id, sl, got, want)
				}
			}
		}
		// The streamed compile keeps no resident fine rows.
		if chk.FineRow(w.ActiveVMs(0)[0], 0) != nil {
			t.Fatal("streamed FineRow should be nil on the Compiled itself")
		}
	}
}

// TestProfileCursorMatchesResident asserts the streamed observation-slot
// profiles are byte-identical to the resident table over the simulator's
// access pattern (obs = max(sl-1, 0) for ids active at sl), at widths
// derived from budgets of k profile slot peaks.
func TestProfileCursorMatchesResident(t *testing.T) {
	for _, k := range []int{1, 3} {
		w, res, chk := streamedPair(func(res *Compiled) int64 { return int64(k) * res.prof.slotPeak })
		if !chk.streamed(&chk.prof) || chk.prof.width != k {
			t.Fatalf("budget of %d slot peaks: profile width %d, streamed %v", k, chk.prof.width, chk.streamed(&chk.prof))
		}
		cur := chk.NewProfileCursor(nil)
		for sl := timeutil.Slot(0); sl < w.Slots(); sl++ {
			obs := obsSlot(sl)
			cur.Advance(obs)
			for _, id := range w.ActiveVMs(sl) {
				got := cur.ProfileRow(id, obs)
				want := res.ProfileRow(id, obs)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("width %d: profile row (%d,%d) = %v, want %v", k, id, obs, got, want)
				}
			}
		}
	}
}

// TestResidentCursorSharesTable pins that no run copies or re-synthesizes
// a resident table: every row a cursor over one is the compiled row itself,
// for cursors of concurrent runs alike, and advancing one across the
// horizon allocates nothing.
func TestResidentCursorSharesTable(t *testing.T) {
	w := New(Config{Seed: 21, Horizon: timeutil.Hours(9), InitialVMs: 30, MeanLifeSlots: 3})
	c := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300})
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fine, prof := c.NewFineCursor(nil), c.NewProfileCursor(nil)
			for sl := timeutil.Slot(0); sl < w.Slots(); sl++ {
				obs := obsSlot(sl)
				fine.Advance(sl)
				prof.Advance(obs)
				for _, id := range w.ActiveVMs(sl) {
					if got, want := fine.FineRow(id, sl), c.FineRow(id, sl); len(want) == 0 || &got[0] != &want[0] {
						t.Errorf("fine row (%d,%d) is not the compiled row", id, sl)
						return
					}
					if got, want := prof.ProfileRow(id, obs), c.ProfileRow(id, obs); len(want) == 0 || &got[0] != &want[0] {
						t.Errorf("profile row (%d,%d) is not the compiled row", id, obs)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	fine, prof := c.NewFineCursor(nil), c.NewProfileCursor(nil)
	allocs := testing.AllocsPerRun(5, func() {
		for sl := timeutil.Slot(0); sl < w.Slots(); sl++ {
			fine.Advance(sl)
			prof.Advance(sl)
		}
	})
	if allocs != 0 {
		t.Fatalf("advancing resident cursors allocated %v times per pass", allocs)
	}
}

// TestStreamedWindowsWithinBudget asserts the budget bounds every window
// either cursor visits whenever it covers the table's busiest slot, over
// churn-heavy workloads whose profile (observation-slot) windows overlap
// more at slot 0 than the active ones: each table's window is sized by its
// own busiest slot.
func TestStreamedWindowsWithinBudget(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		w := New(Config{Seed: seed, Horizon: timeutil.Hours(12), InitialVMs: 40, MeanLifeSlots: 2})
		res := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300})
		for _, peak := range []int64{res.fine.slotPeak, res.prof.slotPeak} {
			for k := int64(1); k <= 3; k++ {
				budget := k * peak
				c := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300, MaxFineTableBytes: budget})
				fine, prof := c.NewFineCursor(nil), c.NewProfileCursor(nil)
				for sl := timeutil.Slot(0); sl < w.Slots(); sl++ {
					fine.Advance(sl)
					prof.Advance(sl)
					if fb := fine.WindowBytes(); budget >= res.fine.slotPeak && fb > budget {
						t.Fatalf("seed %d budget %d: slot %d fine window %d B", seed, budget, sl, fb)
					}
					if pb := prof.WindowBytes(); budget >= res.prof.slotPeak && pb > budget {
						t.Fatalf("seed %d budget %d: slot %d profile window %d B", seed, budget, sl, pb)
					}
				}
			}
		}
	}
}

// TestChunkWidthFromBudget asserts the derived window width scales with
// the budget: a budget below the full table yields a window narrower than
// the horizon, floored at one slot.
func TestChunkWidthFromBudget(t *testing.T) {
	w := New(Config{Seed: 3, Horizon: timeutil.Hours(8), InitialVMs: 25})
	base := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300})
	fineBytes, _ := base.TableBytes()
	if fineBytes <= 0 {
		t.Fatal("expected a non-empty fine table")
	}
	// Half the full table streams with a window of >= 1 slot.
	c := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300, MaxFineTableBytes: fineBytes / 2})
	if got := c.FineChunkSlots(); got < 1 || got >= int(w.Slots()) {
		t.Fatalf("window width %d out of (0, slots)", got)
	}
	// A 1-byte budget bottoms out at one slot, never zero.
	c1 := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300, MaxFineTableBytes: 1})
	if got := c1.FineChunkSlots(); got != 1 {
		t.Fatalf("1-byte budget window width = %d, want 1", got)
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
	streamed := Compile(resident, CompileOptions{Samples: 12, FineStepSec: 300, MaxFineTableBytes: 1})
	if streamed == resident {
		t.Fatal("budgeted recompile returned the unbounded table")
	}
	if streamed.FineChunkSlots() == 0 {
		t.Fatal("budgeted recompile should stream")
	}

	// Same budget again: the streamed compile is compatible with itself.
	if again := Compile(streamed, CompileOptions{Samples: 12, FineStepSec: 300, MaxFineTableBytes: 1}); again != streamed {
		t.Fatal("identical budgeted options must reuse the compiled trace")
	}
}

// TestWindowsRecycleBuffers runs repeated passes of two staggered fine
// cursors over a streamed table of two and of four windows, as the runs of
// a cell column do: the second cursor starts a window after the first,
// both end on the tail window, and the next pass starts again from slot 0.
// After the first pass no window or buffer is allocated, and over two
// windows, which stay held live or idle, none is laid out again. Every row
// stays bit-equal to the resident compile, no more windows are live than
// cursors are open, and the table holds at most the open cursors' windows
// plus maxIdle idle ones.
func TestWindowsRecycleBuffers(t *testing.T) {
	w := New(Config{Seed: 21, Horizon: timeutil.Hours(12), InitialVMs: 30, MeanLifeSlots: 30})
	res := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300})
	for _, wins := range []int{2, 4} {
		width := int(w.Slots()) / wins
		c := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300, MaxFineTableBytes: int64(width) * res.fine.slotPeak})
		if got := c.FineChunkSlots(); got != width {
			t.Fatalf("%d windows: FineChunkSlots = %d, want %d", wins, got, width)
		}
		counter := newWindowCounter()
		var allocs, layouts, firstAllocs, firstLayouts int
		for pass := range 4 {
			a, b := c.NewFineCursor(nil), c.NewFineCursor(nil)
			open := 2
			for i := 0; i < int(c.slots)+width; i++ {
				for _, step := range []struct {
					cur *FineCursor
					sl  timeutil.Slot
				}{{a, timeutil.Slot(i)}, {b, timeutil.Slot(i - width)}} {
					if step.sl < 0 || step.sl >= c.slots {
						continue
					}
					step.cur.Advance(step.sl)
					for id := range c.numVMs {
						if got, want := step.cur.FineRow(id, step.sl), res.FineRow(id, step.sl); !sameBits(got, want) {
							t.Fatalf("%d windows, pass %d: fine row (%d,%d) = %v, want %v", wins, pass, id, step.sl, got, want)
						}
					}
					if step.sl == c.slots-1 {
						step.cur.Close()
						open--
					}
					var held int
					held, allocs, layouts = counter.observe(&c.fine)
					if live := c.LiveWindows(); live > open || held > open+maxIdle {
						t.Fatalf("%d windows, pass %d, slot %d: %d live and %d held windows with %d open cursors", wins, pass, step.sl, live, held, open)
					}
				}
			}
			switch {
			case pass == 0:
				firstAllocs, firstLayouts = allocs, layouts
			case allocs != firstAllocs:
				t.Fatalf("%d windows, pass %d allocated windows: %d distinct windows and buffers seen, %d after the first pass", wins, pass, allocs, firstAllocs)
			case wins <= maxIdle && layouts != firstLayouts:
				t.Fatalf("%d windows, pass %d laid windows out again: %d layouts, %d after the first pass", wins, pass, layouts, firstLayouts)
			}
		}
	}
}

// sharedOrder is the slot order cursor g of a sharing test visits: forward
// from 0, forward from a staggered start (wrapping round), or backward.
func sharedOrder(g int, slots timeutil.Slot) []timeutil.Slot {
	order := make([]timeutil.Slot, slots)
	for i := range order {
		switch g % 3 {
		case 0:
			order[i] = timeutil.Slot(i)
		case 1:
			order[i] = (timeutil.Slot(i) + timeutil.Slot(2*g+1)) % slots
		default:
			order[i] = slots - 1 - timeutil.Slot(i)
		}
	}
	return order
}

// sameBits reports whether two rows hold the same values bit for bit
// (nil only equal to nil).
func sameBits(got, want []float64) bool {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return false
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			return false
		}
	}
	return true
}

// TestSharedWindowsMatchResident runs 1-6 pairs of fine and profile
// cursors over one streamed compile, each pair on its own goroutine and in
// its own slot order, for the synthetic Workload (service-major fill) and
// a replay of it (per-VM fill), with and without workers. Every row read
// must be bit-equal to the resident compile's; a table must never hold
// more windows than it has open cursors, nor any window over the budget;
// cursors on one window share it, also when one comes back to it after
// the last one left; and every window must be released once the cursors
// close — twice, or never, in which case the garbage collector releases
// it.
func TestSharedWindowsMatchResident(t *testing.T) {
	w := New(Config{Seed: 21, Horizon: timeutil.Hours(9), InitialVMs: 30, MeanLifeSlots: 3})
	dir := t.TempDir()
	if err := ExportReplay(w, dir, w.Slots(), 12); err != nil {
		t.Fatal(err)
	}
	rep, err := LoadReplay(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []struct {
		name string
		src  Source
	}{{"workload", w}, {"replay", rep}} {
		opt := CompileOptions{Samples: 12, FineStepSec: 300}
		res := Compile(src.src, opt)
		opt.MaxFineTableBytes = 2 * max(res.fine.slotPeak, res.prof.slotPeak)
		for _, workers := range []*par.Budget{nil, par.NewBudget(2)} {
			opt.Workers = workers
			c := Compile(src.src, opt)
			if !c.streamed(&c.fine) || !c.streamed(&c.prof) {
				t.Fatalf("%s: budget %d B streams fine %v, profile %v", src.name, opt.MaxFineTableBytes, c.streamed(&c.fine), c.streamed(&c.prof))
			}
			for n := 1; n <= 6; n++ {
				name := fmt.Sprintf("%s/workers=%v/cursors=%d", src.name, workers != nil, n)
				sharedRun(t, name, c, res, n, workers, opt.MaxFineTableBytes)
			}
		}
	}
}

// sharedRun drives n concurrent cursor pairs over the streamed compile c
// and checks them against the resident compile res (see
// TestSharedWindowsMatchResident).
func sharedRun(t *testing.T, name string, c, res *Compiled, n int, workers *par.Budget, budget int64) {
	t.Helper()
	// mu orders cursor opens and closes against the window counts: open
	// is the number of cursors of each table opened and not yet closed.
	var mu sync.Mutex
	open := 0
	checkLive := func() {
		mu.Lock()
		defer mu.Unlock()
		for _, tb := range []*table{&c.fine, &c.prof} {
			tb.shared.mu.Lock()
			live := len(tb.shared.live)
			tb.shared.mu.Unlock()
			if live > open {
				t.Errorf("%s: %d live windows with %d open cursors", name, live, open)
			}
		}
	}
	var wg sync.WaitGroup
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			fine, prof := c.NewFineCursor(workers), c.NewProfileCursor(workers)
			open++
			mu.Unlock()
			for _, sl := range sharedOrder(g, c.slots) {
				fine.Advance(sl)
				prof.Advance(sl)
				for id := range c.numVMs {
					if got, want := fine.FineRow(id, sl), res.FineRow(id, sl); !sameBits(got, want) {
						t.Errorf("%s: fine row (%d,%d) = %v, want %v", name, id, sl, got, want)
						return
					}
					if got, want := prof.ProfileRow(id, sl), res.ProfileRow(id, sl); !sameBits(got, want) {
						t.Errorf("%s: profile row (%d,%d) = %v, want %v", name, id, sl, got, want)
						return
					}
				}
				if fb, pb := fine.WindowBytes(), prof.WindowBytes(); fb > budget || pb > budget {
					t.Errorf("%s: slot %d windows of %d and %d B over the %d B budget", name, sl, fb, pb, budget)
				}
				checkLive()
			}
			mu.Lock()
			fine.Close()
			prof.Close()
			open--
			mu.Unlock()
			fine.Close()
			prof.Close()
		}()
	}
	wg.Wait()
	if live := c.LiveWindows(); live != 0 {
		t.Fatalf("%s: %d live windows after every cursor closed", name, live)
	}
	for _, tb := range []*table{&c.fine, &c.prof} {
		if s := tb.shared; s != nil && len(s.idle) > maxIdle {
			t.Fatalf("%s: %d idle windows after every cursor closed, want at most %d", name, len(s.idle), maxIdle)
		}
	}

	// Two cursors on one slot read one window; a cursor that is never
	// closed gives its window up once it is garbage.
	a, b := c.NewFineCursor(workers), c.NewFineCursor(workers)
	a.Advance(1)
	b.Advance(1)
	id := c.ActiveVMs(1)[0]
	if ra, rb := a.FineRow(id, 1), b.FineRow(id, 1); &ra[0] != &rb[0] || c.LiveWindows() != 1 {
		t.Fatalf("%s: two cursors on slot 1 read separate windows (%d live)", name, c.LiveWindows())
	}
	a.Close()
	b.Close()
	// A cursor that comes back to the window the last one left reads its
	// idle rows again, without a refill.
	idle := c.fine.shared.idle
	left := idle[len(idle)-1]
	fill := left.fill
	a = c.NewFineCursor(workers)
	a.Advance(1)
	if a.h.w != left || left.fill != fill {
		t.Fatalf("%s: the window the last cursor left was laid out again", name)
	}
	a.Close()
	func() {
		cur := c.NewFineCursor(workers)
		cur.Advance(0)
	}()
	for i := 0; c.LiveWindows() != 0; i++ {
		if i == 200 {
			t.Fatalf("%s: an unclosed, unreachable cursor still holds its window", name)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
