package main

import (
	"flag"
	"testing"

	"geovmp"
)

// TestScenarioFlagsReachEverySpec sets every scenario flag and checks that
// every spec each ablation sweeps — the preset-based epochs and failures
// rows included — and the base spec the figures and the frontier sweep
// carry each flag's value.
func TestScenarioFlagsReachEverySpec(t *testing.T) {
	set := map[string]string{
		"scale":      "0.02",
		"seed":       "7",
		"days":       "2",
		"finestep":   "300",
		"fastmath":   "true",
		"tracedir":   "replay-dir",
		"ingest-vms": "vms.csv",
		"ingest-cpu": "cpu.csv",
		"finebudget": "4096",
	}
	for name, v := range set {
		f := flag.Lookup(name)
		if f == nil {
			t.Fatalf("no -%s flag", name)
		}
		def := f.DefValue
		t.Cleanup(func() { flag.Set(name, def) })
		if err := flag.Set(name, v); err != nil {
			t.Fatal(err)
		}
	}

	check := func(where string, s geovmp.Spec) {
		t.Helper()
		if s.Scale != 0.02 || s.Seed != 7 || s.Horizon != geovmp.Days(2) || s.FineStepSec != 300 || !s.FastMath {
			t.Errorf("%s: scale/seed/days/finestep/fastmath = %v/%d/%v/%v/%v", where,
				s.Scale, s.Seed, s.Horizon, s.FineStepSec, s.FastMath)
		}
		if s.ReplayDir != "replay-dir" || s.TraceVMsFile != "vms.csv" || s.TraceCPUFile != "cpu.csv" {
			t.Errorf("%s: tracedir/ingest = %q/%q/%q", where, s.ReplayDir, s.TraceVMsFile, s.TraceCPUFile)
		}
		if s.MaxFineTableBytes != 4096 {
			t.Errorf("%s: finebudget = %d", where, s.MaxFineTableBytes)
		}
	}
	check("figures/frontier base", flagged(geovmp.Spec{Name: "paper-geo3dc"}))
	for _, a := range ablations() {
		if len(a.specs) == 0 {
			t.Errorf("%s: no specs", a.exp)
		}
		for _, s := range a.specs {
			check(a.exp+"/"+s.Name, s)
		}
	}
}

// TestStepsKeepAllOrder pins the -exp all order after the figures.
func TestStepsKeepAllOrder(t *testing.T) {
	want := []string{"alpha", "noembed", "qos", "battery", "forecast", "epochs", "frontier", "failures"}
	got := steps()
	if len(got) != len(want) {
		t.Fatalf("%d steps, want %d", len(got), len(want))
	}
	for i, s := range got {
		if s.exp != want[i] {
			t.Errorf("step %d = %q, want %q", i, s.exp, want[i])
		}
	}
}

// TestCheckFlagsRefusesNoSeeds: -seeds below 1 is refused before any
// experiment is declared, and the default passes.
func TestCheckFlagsRefusesNoSeeds(t *testing.T) {
	if err := checkFlags(); err != nil {
		t.Fatalf("default flags refused: %v", err)
	}
	t.Cleanup(func() { flag.Set("seeds", flag.Lookup("seeds").DefValue) })
	for _, v := range []string{"0", "-1"} {
		if err := flag.Set("seeds", v); err != nil {
			t.Fatal(err)
		}
		if err := checkFlags(); err == nil {
			t.Errorf("-seeds %s accepted", v)
		}
	}
}
