package geovmp

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"geovmp/internal/battery"
	"geovmp/internal/policy"
	"geovmp/internal/sim"
	"geovmp/internal/timeutil"
)

// faultySpec reduces the geo5dc-faulty preset to test size and swaps in the
// given storage layout. Scale and horizon are chosen so the measured window
// (slots 6..15 after the default warmup) covers both the Milan DC outage
// (slots 6-8) and the degraded-capacity tail (through slot 12).
func faultySpec(t *testing.T, name string, st StorageConfig) Spec {
	t.Helper()
	spec, err := Preset("geo5dc-faulty")
	if err != nil {
		t.Fatalf("Preset(geo5dc-faulty): %v", err)
	}
	spec.Name = name
	spec.Scale = 0.01
	spec.Horizon = HoursOf(16)
	spec.FineStepSec = 300
	spec.Storage = st
	return spec
}

func runSurvivability(t *testing.T, spec Spec) *Result {
	t.Helper()
	sc, err := NewScenario(spec)
	if err != nil {
		t.Fatalf("NewScenario(%s): %v", spec.Name, err)
	}
	res, err := Run(sc, Proposed(0.5, 1))
	if err != nil {
		t.Fatalf("Run(%s): %v", spec.Name, err)
	}
	return res
}

// TestSurvivabilityAcceptance pins the PR's headline claim: under the
// reference outage schedule on geo5dc-faulty, erasure-coded placement has a
// lower data-loss risk than 2-way replication at the same 2.0x storage
// overhead, both emit repair traffic, and disabling storage leaves the
// durability metrics at zero while the fault schedule still forces
// evacuations.
func TestSurvivabilityAcceptance(t *testing.T) {
	rep := StorageConfig{Scheme: StorageReplicated, Replicas: 2}
	era := StorageConfig{Scheme: StorageErasure, K: 2, M: 2}

	none := runSurvivability(t, faultySpec(t, "faulty-none", StorageConfig{}))
	repRes := runSurvivability(t, faultySpec(t, "faulty-rep", rep))
	eraRes := runSurvivability(t, faultySpec(t, "faulty-era", era))

	if none.DataLossProb != 0 || none.RepairBytes != 0 {
		t.Errorf("no-storage run must report zero durability metrics, got loss=%v repair=%v",
			none.DataLossProb, none.RepairBytes)
	}
	if none.Evacuations+none.StrandedVMSlots == 0 {
		t.Errorf("reference outage schedule produced no evacuations or stranded slots")
	}
	if repRes.DataLossProb <= 0 {
		t.Errorf("replicated data-loss probability = %v, want > 0", repRes.DataLossProb)
	}
	if eraRes.DataLossProb <= 0 {
		t.Errorf("erasure data-loss probability = %v, want > 0", eraRes.DataLossProb)
	}
	if eraRes.DataLossProb >= repRes.DataLossProb {
		t.Errorf("erasure loss risk %v not below replication %v at equal overhead",
			eraRes.DataLossProb, repRes.DataLossProb)
	}
	if repRes.RepairBytes <= 0 || eraRes.RepairBytes <= 0 {
		t.Errorf("repair traffic missing: replicated %v, erasure %v",
			repRes.RepairBytes, eraRes.RepairBytes)
	}
}

// TestSurvivabilityFrontier pins the second half of the acceptance
// criterion: the repair-bandwidth objective participates in a 3-objective
// frontier over the faulty scenario and carries a positive value on the
// resolved front.
func TestSurvivabilityFrontier(t *testing.T) {
	spec := faultySpec(t, "faulty-frontier", StorageConfig{Scheme: StorageErasure, K: 2, M: 2})
	fr := Frontier{
		Scenarios:   []Spec{spec},
		Objectives:  []Objective{CostObjective(), DataLossObjective(), RepairBandwidthObjective()},
		PointBudget: 3,
		Seeds:       1,
		Parallelism: 2,
	}
	fs, err := fr.Run(context.Background())
	if err != nil {
		t.Fatalf("frontier run: %v", err)
	}
	if len(fs.Scenarios) != 1 || fs.Scenarios[0].Scenario != "faulty-frontier" {
		t.Fatalf("frontier set missing scenario, have %v", fs.Scenarios)
	}
	sf := fs.Scenarios[0]
	idx := slices.Index(sf.Objectives, "repair_gb")
	if idx < 0 {
		t.Fatalf("repair_gb objective missing from frontier objectives %v", sf.Objectives)
	}
	lossIdx := slices.Index(sf.Objectives, "data_loss_prob")
	if lossIdx < 0 {
		t.Fatalf("data_loss_prob objective missing from frontier objectives %v", sf.Objectives)
	}
	if len(sf.Front) == 0 {
		t.Fatalf("frontier front is empty")
	}
	for _, pi := range sf.Front {
		p := sf.Points[pi]
		if p.V[idx] <= 0 {
			t.Errorf("front point %s has non-positive repair_gb %v", p.Name, p.V[idx])
		}
	}
}

// stopAtSlot wraps a policy and, when asked to place slot `at`, records
// the fleet's server counts and then stops the run: it cancels the run's
// context (the next slot check returns), or with a nil cancel it leaves
// every VM unplaced (the run fails at once).
type stopAtSlot struct {
	Policy
	at      timeutil.Slot
	cancel  func()
	servers []int
}

func (p *stopAtSlot) Place(in *policy.Input) policy.Placement {
	if in.Slot != p.at {
		return p.Policy.Place(in)
	}
	for _, d := range in.DCs {
		p.servers = append(p.servers, d.Servers)
	}
	if p.cancel == nil {
		return policy.Placement{DCOf: map[int]int{}}
	}
	p.cancel()
	return p.Policy.Place(in)
}

// TestStoppedFaultyRunRestoresFleet: a faulty run that is cancelled or
// fails mid-outage hands the scenario back with its healthy server counts,
// so a rerun on the same scenario equals a run on a fresh one. Battery
// charge and forecaster history are per-run state a reused scenario
// carries by design (one Scenario per Run), so the test resets the banks
// itself and uses the stateless oracle forecaster, leaving the fleet the
// fault engine shrinks as the only state under test.
func TestStoppedFaultyRunRestoresFleet(t *testing.T) {
	spec := faultySpec(t, "faulty-stop", StorageConfig{})
	spec.Faults = ReferenceFaults()
	spec.Forecast = ForecastOracle
	fresh, err := NewScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(fresh, EnerAware())
	if err != nil {
		t.Fatal(err)
	}
	for _, cancelled := range []bool{true, false} {
		sc, err := NewScenario(spec)
		if err != nil {
			t.Fatal(err)
		}
		var healthy []int
		var banks []battery.Bank
		for _, d := range sc.Fleet {
			healthy = append(healthy, d.Servers)
			banks = append(banks, *d.Bank)
		}
		ctx, cancel := context.WithCancel(context.Background())
		stop := &stopAtSlot{Policy: EnerAware(), at: 8}
		if cancelled {
			stop.cancel = cancel
		}
		_, err = sim.RunCtx(ctx, sc, stop)
		cancel()
		if cancelled != errors.Is(err, context.Canceled) || err == nil {
			t.Fatalf("cancelled=%v: run returned %v", cancelled, err)
		}
		if slices.Equal(stop.servers, healthy) {
			t.Fatalf("cancelled=%v: fleet not degraded at the stop slot %v", cancelled, stop.servers)
		}
		var after []int
		for i, d := range sc.Fleet {
			after = append(after, d.Servers)
			*d.Bank = banks[i]
		}
		if !slices.Equal(after, healthy) {
			t.Fatalf("cancelled=%v: servers after the stopped run %v, healthy %v", cancelled, after, healthy)
		}
		got, err := Run(sc, EnerAware())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cancelled=%v: rerun on the stopped scenario differs from a fresh run", cancelled)
		}
	}
}
