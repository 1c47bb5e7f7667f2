package core_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"geovmp/internal/config"
	"geovmp/internal/core"
	"geovmp/internal/experiment"
	"geovmp/internal/par"
	"geovmp/internal/policy"
	"geovmp/internal/sim"
	"geovmp/internal/timeutil"
)

// aheadSpec is a short geo5dc run whose fleet is above the embedding's
// exact threshold.
func aheadSpec(t *testing.T) config.Spec {
	t.Helper()
	spec, err := config.Preset("geo5dc")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 0.02
	spec.Seed = 31
	spec.Horizon = timeutil.Hours(8)
	spec.FineStepSec = 600
	return spec
}

// TestRunAheadEngagesAndChangesNothing holds the pipelined global phase to
// its two claims on a one-cell Proposed sweep over a fleet above the
// embedding's exact threshold: at Parallelism 2 the cell's spare worker
// embeds most slots one slot ahead, at Parallelism 1 none, and the
// ResultSet JSON is byte-identical either way.
func TestRunAheadEngagesAndChangesNothing(t *testing.T) {
	spec := aheadSpec(t)
	run := func(parallelism int) ([]byte, *core.Controller) {
		var ctl *core.Controller
		set, err := experiment.Run(context.Background(), experiment.Grid{
			Scenarios: []config.Spec{spec},
			Policies: []experiment.PolicySpec{{Name: "Proposed", New: func(seed uint64) policy.Policy {
				ctl = core.New(0.9, seed)
				return ctl
			}}},
			SeedOffsets: []uint64{0},
			Parallelism: parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		js, err := set.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js, ctl
	}
	serialJSON, serial := run(1)
	if n := len(serial.Positions()); n <= 512 {
		t.Fatalf("the last slot embeds %d VMs, not above the exact threshold", n)
	}
	if n := core.AheadSlots(serial); n != 0 {
		t.Fatalf("Parallelism 1 ran %d slots ahead, want none", n)
	}
	aheadJSON, ahead := run(2)
	slots := int(spec.Horizon.Slots)
	n := core.AheadSlots(ahead)
	if 2*n <= slots {
		t.Fatalf("Parallelism 2 ran %d of %d slots ahead, want most", n, slots)
	}
	t.Logf("Parallelism 2 ran %d of %d slots ahead", n, slots)
	if !bytes.Equal(serialJSON, aheadJSON) {
		t.Fatal("ResultSet JSON differs between the run-ahead and the inline embedding")
	}
}

// failAt wraps a policy and, once slot at is placed, either cancels the
// run's context or, with no cancel, leaves a VM unplaced.
type failAt struct {
	policy.Policy
	at     timeutil.Slot
	cancel context.CancelFunc
}

func (f *failAt) Place(in *policy.Input) policy.Placement {
	p := f.Policy.Place(in)
	if in.Slot == f.at {
		if f.cancel != nil {
			f.cancel()
		} else {
			delete(p.DCOf, in.ActiveVMs[0])
		}
	}
	return p
}

// TestRunAheadJoinedOnEarlyReturn holds that a run ending early — on a
// cancelled context or a policy's unplaced VM — first joins the embedding
// its last Place started one slot ahead: when RunCtx returns, the worker
// budget holds its starting allowance again and no goroutine is left.
func TestRunAheadJoinedOnEarlyReturn(t *testing.T) {
	for _, cancelled := range []bool{true, false} {
		sc, err := config.Build(aheadSpec(t))
		if err != nil {
			t.Fatal(err)
		}
		budget := par.NewBudget(1)
		sc.Workers = budget
		ctx, cancel := context.WithCancel(context.Background())
		ctl := core.New(0.9, 1)
		pol := &failAt{Policy: ctl, at: 3}
		if cancelled {
			pol.cancel = cancel
		}
		goroutines := runtime.NumGoroutine()
		_, err = sim.RunCtx(ctx, sc, pol)
		extra := budget.Extra()
		cancel()
		switch {
		case err == nil:
			t.Fatalf("cancelled=%v: the run did not fail", cancelled)
		case cancelled && !errors.Is(err, context.Canceled):
			t.Fatalf("cancelled run returned %v", err)
		}
		if n := core.AheadSlots(ctl); n != 3 {
			t.Fatalf("cancelled=%v: %d slots took a run-ahead before the failure, want 3", cancelled, n)
		}
		if extra != 1 {
			t.Fatalf("cancelled=%v: the budget holds %d workers after RunCtx, want 1", cancelled, extra)
		}
		// A joined goroutine may still be on its way out.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > goroutines {
			buf := make([]byte, 1<<20)
			t.Fatalf("cancelled=%v: %d goroutines after RunCtx, %d before:\n%s", cancelled, n, goroutines, buf[:runtime.Stack(buf, true)])
		}
	}
}
