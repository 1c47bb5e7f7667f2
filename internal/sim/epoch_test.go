package sim

import (
	"testing"

	"geovmp/internal/timeutil"
)

func TestEpochPlanPartition(t *testing.T) {
	for _, tc := range []struct {
		epochs int
		slots  timeutil.Slot
	}{
		{1, 1}, {1, 168}, {2, 10}, {3, 10}, {4, 8}, {7, 168}, {5, 5},
		{168, 168}, {3, 7}, {16, 24},
	} {
		p := NewEpochPlan(tc.epochs, tc.slots)
		if p.Start(0) != 0 {
			t.Fatalf("E=%d S=%d: Start(0) = %d", tc.epochs, tc.slots, p.Start(0))
		}
		if p.End(p.Epochs()-1) != tc.slots {
			t.Fatalf("E=%d S=%d: End(last) = %d, want %d", tc.epochs, tc.slots, p.End(p.Epochs()-1), tc.slots)
		}
		for e := 0; e < p.Epochs(); e++ {
			if p.End(e) <= p.Start(e) {
				t.Fatalf("E=%d S=%d: epoch %d empty [%d, %d)", tc.epochs, tc.slots, e, p.Start(e), p.End(e))
			}
		}
	}
}

func TestEpochPlanClamps(t *testing.T) {
	if got := NewEpochPlan(0, 24).Epochs(); got != 1 {
		t.Fatalf("epochs(0) = %d, want 1", got)
	}
	if got := NewEpochPlan(-3, 24).Epochs(); got != 1 {
		t.Fatalf("epochs(-3) = %d, want 1", got)
	}
	if got := NewEpochPlan(100, 24).Epochs(); got != 24 {
		t.Fatalf("epochs(100) over 24 slots = %d, want 24 (an epoch is at least a slot)", got)
	}
}

func TestMigrationBudgetResolved(t *testing.T) {
	def := MigrationBudget{}.resolved()
	if def.EnergyPerGB != DefaultMigEnergyPerGB || def.DowntimeSec != DefaultMigDowntimeSec {
		t.Fatalf("zero budget resolved to %+v, want engine defaults", def)
	}
	off := MigrationBudget{EnergyPerGB: -1, DowntimeSec: -1}.resolved()
	if off.EnergyPerGB != 0 || off.DowntimeSec != 0 {
		t.Fatalf("negative charging fields resolved to %+v, want disabled", off)
	}
	custom := MigrationBudget{MaxMovesPerEpoch: 5, EnergyPerGB: 7, DowntimeSec: 0.25}.resolved()
	if custom.MaxMovesPerEpoch != 5 || custom.EnergyPerGB != 7 || custom.DowntimeSec != 0.25 {
		t.Fatalf("explicit budget mangled: %+v", custom)
	}
}

func TestNewEpochRunStaticPath(t *testing.T) {
	sc := &Scenario{Horizon: timeutil.Hours(24)}
	if r := newEpochRun(sc, 3); r != nil {
		t.Fatal("static scenario (Epochs 0, zero budget) must not activate the engine")
	}
	sc.Epochs = 1
	if r := newEpochRun(sc, 3); r != nil {
		t.Fatal("Epochs=1 with a zero budget is the static path")
	}
	sc.Epochs = 4
	if r := newEpochRun(sc, 3); r == nil || len(r.stats) != 4 {
		t.Fatalf("Epochs=4 engine = %+v", r)
	}
	sc.Epochs = 0
	sc.Migration = MigrationBudget{MaxMovesPerEpoch: 2}
	if r := newEpochRun(sc, 3); r == nil || len(r.stats) != 1 {
		t.Fatal("a non-zero budget must activate the engine with a single epoch")
	}
}
