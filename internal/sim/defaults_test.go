package sim_test

import (
	"reflect"
	"testing"

	"geovmp/internal/core"
	"geovmp/internal/policy"
	"geovmp/internal/sim"
	"geovmp/internal/timeutil"
	"geovmp/internal/trace"
)

// TestResolveDefaults pins the unset-vs-override convention: zero selects
// the default, negative selects the zero-value override where one is
// meaningful (mirroring WarmupSlots).
func TestResolveDefaults(t *testing.T) {
	if got := sim.ResolveQoS(0); got != sim.DefaultQoS {
		t.Fatalf("ResolveQoS(0) = %v", got)
	}
	if got := sim.ResolveQoS(-1); got != 0 {
		t.Fatalf("ResolveQoS(-1) = %v, want 0 (guarantee disabled)", got)
	}
	if got := sim.ResolveQoS(0.95); got != 0.95 {
		t.Fatalf("ResolveQoS(0.95) = %v", got)
	}
	if got := sim.ResolveProfileSamples(0); got != sim.DefaultProfileSamples {
		t.Fatalf("ResolveProfileSamples(0) = %v", got)
	}
	if got := sim.ResolveProfileSamples(-3); got != 0 {
		t.Fatalf("ResolveProfileSamples(-3) = %v, want 0 (no profiles)", got)
	}
	if got := sim.ResolveProfileSamples(24); got != 24 {
		t.Fatalf("ResolveProfileSamples(24) = %v", got)
	}
	if got := sim.ResolveFineStep(0); got != sim.DefaultFineStepSec {
		t.Fatalf("ResolveFineStep(0) = %v", got)
	}
	if got := sim.ResolveFineStep(-5); got != sim.DefaultFineStepSec {
		t.Fatalf("ResolveFineStep(-5) = %v (no meaningful zero override)", got)
	}
	if got := sim.ResolveFineStep(60); got != 60 {
		t.Fatalf("ResolveFineStep(60) = %v", got)
	}
}

// TestNegativeQoSDisablesGuarantee runs a scenario with QoS < 0: the
// migration budget spans the whole slot, so nothing is rejected.
func TestNegativeQoSDisablesGuarantee(t *testing.T) {
	sc := tinyScenario(t, 6)
	sc.QoS = -1
	res, err := sim.Run(sc, allPolicies(6)[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.MigRejected != 0 {
		t.Fatalf("disabled QoS still rejected %d migrations", res.MigRejected)
	}
}

// TestNegativeProfileSamplesRunsBlind runs with ProfileSamples < 0: the
// controllers observe empty profiles but the simulation still completes.
func TestNegativeProfileSamplesRunsBlind(t *testing.T) {
	sc := tinyScenario(t, 6)
	sc.ProfileSamples = -1
	res, err := sim.Run(sc, policy.EnerAware{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEnergy <= 0 {
		t.Fatal("blind run consumed no energy")
	}
}

// nEchoSource is a Source whose SlotProfile ignores the requested sample
// count and counts its calls.
type nEchoSource struct {
	trace.Source
	calls int
}

func (s *nEchoSource) SlotProfile(id int, sl timeutil.Slot, _ int) []float64 {
	s.calls++
	return s.Source.SlotProfile(id, sl, sim.DefaultProfileSamples)
}

// TestBlindRunAsksNoProfiles checks that a ProfileSamples < 0 run never asks
// its Source for a profile, so a Source that ignores the requested length
// cannot hand the blind controllers one: the run over such a Source equals
// the run over the unwrapped one.
func TestBlindRunAsksNoProfiles(t *testing.T) {
	want := tinyScenario(t, 6)
	want.ProfileSamples = -1
	got := tinyScenario(t, 6)
	got.ProfileSamples = -1
	src := &nEchoSource{Source: got.Workload}
	got.Workload = src
	wantRes, err := sim.Run(want, core.New(0.9, 6))
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := sim.Run(got, core.New(0.9, 6))
	if err != nil {
		t.Fatal(err)
	}
	if src.calls != 0 {
		t.Errorf("blind run asked the Source for %d profiles", src.calls)
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Errorf("blind run over a length-ignoring Source diverged: cost %v vs %v, energy %v vs %v",
			gotRes.OpCost, wantRes.OpCost, gotRes.TotalEnergy, wantRes.TotalEnergy)
	}
}
