package config

import (
	"math"
	"testing"

	"geovmp/internal/sim"
	"geovmp/internal/timeutil"
)

// FuzzSpecValidate drives Build through adversarial Spec field values and
// pins the validation contract: Validate and Build agree (a spec Validate
// accepts must Build, one it rejects must not), and neither ever panics.
// The harness clamps the *sizes* (horizon, fleet scale, workload density)
// so accepted specs stay test-sized, but passes the shapes — negatives,
// NaN, Inf, mismatched row counts — straight through.
//
// CI runs this as a short -fuzztime smoke job; `go test` replays the seed
// corpus as a regular regression test.
func FuzzSpecValidate(f *testing.F) {
	f.Add(0.02, uint64(42), 8, 7.0, 300.0, 0.98, 4, 0.3, 10, 512.0, 0.5, 0.4, 0.2, 4, int64(0))
	f.Add(0.01, uint64(7), 2, 1.0, 600.0, -1.0, 0, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0, int64(1))
	f.Add(-1.0, uint64(0), -3, math.NaN(), 0.0, 2.0, -2, math.Inf(1), -5, -1.0, -1.0, -0.5, 1.0, 2, int64(0))
	f.Add(0.015, uint64(3), 5, 2.0, 450.0, 0.9, 3, 0.99, 1, 64.0, 0.1, 0.25, 0.25, 3, int64(4<<20))
	f.Add(0.01, uint64(5), 4, 2.0, 300.0, 0.98, 0, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0, int64(-1))
	f.Fuzz(func(t *testing.T, scale float64, seed uint64, hours int, vmsPerServer,
		fineStep, qos float64, epochs int, wave float64, maxMoves int,
		energyPerGB, downtime, wA, wB float64, mixRows int, fineBudget int64) {
		// Size clamps only — keep every accepted spec cheap to Build.
		if scale > 0.03 {
			scale = math.Mod(scale, 0.03)
		}
		if hours > 12 {
			hours = hours % 12
		}
		if vmsPerServer > 8 {
			vmsPerServer = math.Mod(vmsPerServer, 8)
		}
		if epochs > 16 {
			epochs = epochs % 16
		}
		if mixRows > 8 {
			mixRows = mixRows % 8
		}
		spec := Spec{
			Scale:             scale,
			Seed:              seed,
			Horizon:           timeutil.Hours(hours),
			VMsPerServer:      vmsPerServer,
			FineStepSec:       fineStep,
			QoS:               qos,
			Epochs:            epochs,
			ArrivalWave:       wave,
			MaxFineTableBytes: fineBudget,
			Migration: sim.MigrationBudget{
				MaxMovesPerEpoch: maxMoves,
				EnergyPerGB:      energyPerGB,
				DowntimeSec:      downtime,
			},
		}
		if mixRows > 0 {
			spec.EpochClassWeights = make([][]float64, mixRows)
			for i := range spec.EpochClassWeights {
				spec.EpochClassWeights[i] = []float64{wA, wB, 0.2, 0.2}
			}
		}
		verr := spec.Validate()
		if fineBudget < 0 && verr == nil {
			t.Fatalf("Validate accepted the negative fine-table budget %d", fineBudget)
		}
		sc, berr := Build(spec)
		if verr == nil && berr != nil {
			t.Fatalf("Validate accepted a spec Build rejects: %v (spec %+v)", berr, spec)
		}
		if verr != nil && berr == nil {
			t.Fatalf("Validate rejected (%v) but Build accepted (spec %+v)", verr, spec)
		}
		if berr != nil {
			return
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("Build produced a scenario its own Validate rejects: %v", err)
		}
		if w, err := NewWorkload(spec); err != nil {
			t.Fatalf("Build succeeded but NewWorkload failed: %v", err)
		} else if w.NumVMs() != sc.Workload.NumVMs() {
			t.Fatalf("NewWorkload sized %d VMs, Build %d", w.NumVMs(), sc.Workload.NumVMs())
		}
	})
}
