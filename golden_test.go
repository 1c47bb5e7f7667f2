package geovmp

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// goldenPath holds the committed golden ResultSet export. Regenerate it
// deliberately — never by editing — with:
//
//	GEOVMP_UPDATE_GOLDEN=1 go test -run TestGoldenResultSet .
//
// and review the diff like any other code change: every changed digit is a
// behaviour change shipped to users of these numbers.
const goldenPath = "testdata/golden_sweep.json"

// goldenGrid is the pinned regression grid: the paper's Table I world plus
// the rolling-horizon geo5dc-dynamic preset (per-epoch breakdown included),
// each tiny and short, under all four standard policies and two seeds.
func goldenGrid() *Experiment {
	static := MustPreset("paper-geo3dc")
	static.Scale = 0.01
	static.Seed = 7
	static.Horizon = HoursOf(8)
	static.FineStepSec = 300

	dynamic := MustPreset("geo5dc-dynamic")
	dynamic.Scale = 0.01
	dynamic.Seed = 11
	dynamic.Horizon = HoursOf(8)
	dynamic.FineStepSec = 300

	return NewExperiment(
		WithScenarios(static, dynamic),
		WithPolicies(StandardPolicies(0.9)...),
		WithSeeds(2),
	)
}

// TestGoldenResultSet is the golden-result regression harness: the grid's
// ResultSet JSON must match the committed file bit for bit. The simulator
// is deterministic in the seeds at any parallelism, so any diff here is a
// real behaviour change — an intentional one updates the golden in the same
// commit (like PR 2's last-ulp embedding refinement would have), an
// unintentional one is a caught regression.
func TestGoldenResultSet(t *testing.T) {
	set, err := goldenGrid().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	js, err := set.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got := append(js, '\n')

	// Sanity-check the golden covers the rolling-horizon surface before
	// comparing: the dynamic scenario must report per-epoch migrations.
	assertDynamicCoverage(t, set)

	matchGolden(t, goldenPath, got)
}

// assertDynamicCoverage fails when the dynamic half of the golden grid
// stops exercising the epoch engine — a silent-coverage guard, not a
// metric assertion.
func assertDynamicCoverage(t *testing.T, set *ResultSet) {
	t.Helper()
	migrations := 0
	for pi := range set.Policies {
		for ki := range set.SeedOffsets {
			r := set.At(1, pi, ki).Result
			if r == nil {
				t.Fatalf("dynamic cell (%d,%d) missing", pi, ki)
			}
			if len(r.Epochs) == 0 {
				t.Fatalf("dynamic cell %s/seed+%d has no epoch breakdown", set.Policies[pi], ki)
			}
			for _, es := range r.Epochs {
				migrations += es.Migrations
			}
		}
	}
	if migrations == 0 {
		t.Fatal("dynamic scenario executed no migrations: the golden no longer covers migration accounting")
	}
}

// matchGolden compares got with the committed golden file at path, or
// rewrites the file when GEOVMP_UPDATE_GOLDEN is set.
func matchGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if os.Getenv("GEOVMP_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file (%v); generate one with GEOVMP_UPDATE_GOLDEN=1 go test -run %s .", err, t.Name())
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("JSON drifted from %s at %s.\nIf the change is intentional, regenerate with GEOVMP_UPDATE_GOLDEN=1 and commit the diff.",
			path, firstDiff(got, want))
	}
}

// firstDiff locates the first divergence between two byte slices by line
// and column, so a golden failure points at the drifted metric instead of
// dumping two multi-kilobyte documents.
func firstDiff(got, want []byte) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	line, col := 1, 1
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("line %d, column %d (got %q, want %q)", line, col, got[i], want[i])
		}
		if got[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Sprintf("length %d vs %d (common prefix identical)", len(got), len(want))
}

// goldenFastMathPath pins the opt-in fast numeric mode, which the exact
// goldens never enter, and goldenSampledPath pins the exact sampled
// embedding on the same grid. Regenerate with:
//
//	GEOVMP_UPDATE_GOLDEN=1 go test -run 'TestGoldenFastMath|TestGoldenSampled' .
const (
	goldenFastMathPath = "testdata/golden_fastmath.json"
	goldenSampledPath  = "testdata/golden_sampled.json"
)

// sampledGoldenMinVMs is the fleet the sampled grid must exceed in every
// cell: embed.Config's default ExactThreshold, above which the sampled
// runner (and in fast mode the frozen-peer table) takes over from the dense
// one.
const sampledGoldenMinVMs = 512

func goldenSampledGrid(fastMath bool) *Experiment {
	static := MustPreset("paper-geo3dc")
	static.Scale = 0.03
	static.Seed = 23
	static.Horizon = HoursOf(8)
	static.FineStepSec = 600
	static.FastMath = fastMath

	dynamic := MustPreset("geo5dc-dynamic")
	dynamic.Scale = 0.02
	dynamic.Seed = 29
	dynamic.Horizon = HoursOf(8)
	dynamic.FineStepSec = 600
	dynamic.FastMath = fastMath

	return NewExperiment(
		WithScenarios(static, dynamic),
		WithPolicies(StandardPolicies(0.9)[0]),
		WithSeeds(2),
	)
}

// TestGoldenFastMath is the fast-mode golden: the Proposed controller with
// FastMath on both scenario kinds must reproduce the committed ResultSet
// JSON bit for bit, on fleets large enough that the sampled embedding runs
// with frozen peers rather than the dense exact mode.
func TestGoldenFastMath(t *testing.T) {
	matchSampledGolden(t, true, goldenFastMathPath)
}

// TestGoldenSampled is TestGoldenFastMath's exact twin: the same grid with
// FastMath off, so the sampled embedding redraws its peers every iteration
// through the exact peak-coincidence kernel.
func TestGoldenSampled(t *testing.T) {
	matchSampledGolden(t, false, goldenSampledPath)
}

// matchSampledGolden runs the sampled grid in the given mode, checks every
// cell ends above the exact threshold, and compares the export with path.
func matchSampledGolden(t *testing.T, fastMath bool, path string) {
	t.Helper()
	set, err := goldenSampledGrid(fastMath).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for si := range set.Scenarios {
		for ki := range set.SeedOffsets {
			r := set.At(si, 0, ki).Result
			if r == nil {
				t.Fatalf("sampled cell (%d,%d) missing", si, ki)
			}
			if n := len(r.FinalPlacement); n <= sampledGoldenMinVMs {
				t.Fatalf("%s seed+%d ends with %d active VMs, not above %d: the golden no longer covers the sampled embedding",
					set.Scenarios[si], ki, n, sampledGoldenMinVMs)
			}
		}
	}
	js, err := set.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got := append(js, '\n')

	matchGolden(t, path, got)
}

// goldenFaultyPath pins the survivability surface: the geo5dc-faulty preset
// (reference outage schedule + erasure-coded storage) under the standard
// policies. Separate from golden_sweep.json so zero-fault scenarios keep
// their byte-identical history. Regenerate with:
//
//	GEOVMP_UPDATE_GOLDEN=1 go test -run TestGoldenFaulty .
const goldenFaultyPath = "testdata/golden_faulty.json"

func goldenFaultyGrid() *Experiment {
	faulty := MustPreset("geo5dc-faulty")
	faulty.Scale = 0.01
	faulty.Seed = 13
	faulty.Horizon = HoursOf(16)
	faulty.FineStepSec = 300

	return NewExperiment(
		WithScenarios(faulty),
		WithPolicies(StandardPolicies(0.9)...),
		WithSeeds(2),
	)
}

// TestGoldenFaulty is the fault-path golden: the faulty grid's ResultSet
// JSON must match the committed file bit for bit, and the grid must
// actually exercise the survivability surface (loss risk, repair traffic,
// evacuations) so the golden cannot silently degenerate into a healthy run.
func TestGoldenFaulty(t *testing.T) {
	set, err := goldenFaultyGrid().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	js, err := set.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got := append(js, '\n')

	covered := false
	for pi := range set.Policies {
		for ki := range set.SeedOffsets {
			r := set.At(0, pi, ki).Result
			if r == nil {
				t.Fatalf("faulty cell (%d,%d) missing", pi, ki)
			}
			if r.DataLossProb > 0 && r.RepairBytes > 0 &&
				r.Evacuations+r.StrandedVMSlots > 0 {
				covered = true
			}
		}
	}
	if !covered {
		t.Fatal("no cell shows loss risk, repair traffic and evacuations: the golden no longer covers the fault path")
	}

	matchGolden(t, goldenFaultyPath, got)
}
