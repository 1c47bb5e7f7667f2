package config

import (
	"fmt"
	"reflect"
	"testing"

	"geovmp/internal/core"
	"geovmp/internal/policy"
	"geovmp/internal/sim"
	"geovmp/internal/timeutil"
	"geovmp/internal/trace"
)

// compileSpec returns a reduced variant of a preset for the equivalence
// runs: small fleet, short horizon, coarse fine step.
func compileSpec(t *testing.T, preset string, seed uint64) Spec {
	t.Helper()
	spec, err := Preset(preset)
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 0.01
	spec.Seed = seed
	spec.Horizon = timeutil.Hours(8)
	spec.FineStepSec = 300
	return spec
}

// runWith builds a fresh scenario for spec with the given workload (nil
// selects the synthetic generator) and simulates the proposed controller —
// the policy exercising every observation path: profiles, volumes,
// energies, images and the fine loop.
func runWith(t *testing.T, spec Spec, w trace.Source, env *sim.Environment) *sim.Result {
	t.Helper()
	spec.Workload = w
	sc, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	sc.Env = env
	res, err := sim.Run(sc, core.New(0.9, spec.Seed))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCompiledMatchesSynthesized is the compiled-trace oracle: a run handed
// the raw workload — which the simulator compiles for itself — must
// reproduce the exact Result (cost, energy, response samples, migrations,
// series, placements) of a run over the experiment engine's column: the
// spec's compiled workload plus its compiled environment, both used as
// handed over. Covered across presets and seeds, plus a source longer than
// the horizon (compiled through a window), a compiled trace at a
// mismatched fine step (recompiled), the faulty preset, and a scenario
// whose controllers get empty profiles.
func TestCompiledMatchesSynthesized(t *testing.T) {
	type tc struct {
		name string
		spec Spec
		raw  trace.Source // nil: the spec's synthetic workload
	}
	var cases []tc
	for _, preset := range []string{"paper-geo3dc", "geo5dc"} {
		for _, seed := range []uint64{7, 19} {
			cases = append(cases, tc{name: fmt.Sprintf("%s seed %d", preset, seed), spec: compileSpec(t, preset, seed)})
		}
	}
	long := compileSpec(t, "paper-geo3dc", 23)
	long.Horizon = timeutil.Hours(16)
	longSrc, err := NewWorkload(long)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{name: "source longer than the horizon", spec: compileSpec(t, "paper-geo3dc", 23), raw: longSrc})
	mismatched := compileSpec(t, "geo5dc", 29)
	src, err := NewWorkload(mismatched)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{name: "mismatched fine step", spec: mismatched,
		raw: trace.Compile(src, trace.CompileOptions{Samples: 12, FineStepSec: 600})})
	cases = append(cases, tc{name: "faulty preset", spec: compileSpec(t, "geo5dc-faulty", 31)})
	blind := compileSpec(t, "paper-geo3dc", 37)
	blind.ProfileSamples = -1
	cases = append(cases, tc{name: "no profiles", spec: blind})

	for _, c := range cases {
		live := runWith(t, c.spec, c.raw, nil)
		spec := c.spec
		spec.Workload = c.raw
		compiled, err := CompileWorkload(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		env := sim.CompileEnvironment(sc.Fleet, sc.Horizon, spec.FineStepSec, nil)
		if got := runWith(t, c.spec, compiled, env); !reflect.DeepEqual(live, got) {
			t.Errorf("%s: column run differs from the raw-source run", c.name)
		}
	}
}

// TestCompiledMatchesSynthesizedEnerAware covers the plain-FFD local phase
// and the no-embedding observation pattern on a second policy.
func TestCompiledMatchesSynthesizedEnerAware(t *testing.T) {
	spec := compileSpec(t, "paper-geo3dc", 11)
	build := func(w trace.Source) *sim.Result {
		spec.Workload = w
		sc, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sc, policy.EnerAware{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	live := build(nil)
	compiled, err := CompileWorkload(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, build(compiled)) {
		t.Error("compiled-trace run differs from live run under Ener-aware")
	}
}

// TestCompileWorkloadIdempotent asserts recompiling a compiled trace with
// the same parameters returns it unchanged.
func TestCompileWorkloadIdempotent(t *testing.T) {
	spec := compileSpec(t, "paper-geo3dc", 3)
	c1, err := CompileWorkload(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload = c1
	c2, err := CompileWorkload(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("recompiling a compatible compiled trace should be the identity")
	}
}

// TestNewWorkloadMatchesBuild asserts the standalone workload constructor
// sizes the workload exactly like Build does.
func TestNewWorkloadMatchesBuild(t *testing.T) {
	spec := compileSpec(t, "geo5dc", 5)
	w, err := NewWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumVMs() != sc.Workload.NumVMs() {
		t.Fatalf("NewWorkload VMs = %d, Build's = %d", w.NumVMs(), sc.Workload.NumVMs())
	}
	if w.Slots() != sc.Workload.Slots() {
		t.Fatalf("NewWorkload slots = %d, Build's = %d", w.Slots(), sc.Workload.Slots())
	}
}
