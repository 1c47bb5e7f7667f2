package battery

import (
	"testing"

	"geovmp/internal/units"
)

func TestChargeDegenerateInputs(t *testing.T) {
	b := paperBank(t)
	if b.Charge(0, 60) != 0 || b.Charge(-100, 60) != 0 || b.Charge(100, 0) != 0 {
		t.Fatal("degenerate charge moved energy")
	}
	if b.Discharge(0, 60) != 0 || b.Discharge(100, -1) != 0 {
		t.Fatal("degenerate discharge moved energy")
	}
}

func TestInitialSoCClampedToDoDWindow(t *testing.T) {
	b, err := New(Config{Capacity: 100 * units.KilowattHour, DoD: 0.5, InitialSoC: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// 0.1 is below the 0.5 floor: clamped up.
	if b.SoC() != 50*units.KilowattHour {
		t.Fatalf("initial SoC = %v, want clamped to the floor", b.SoC())
	}
	b2, err := New(Config{Capacity: 100 * units.KilowattHour, DoD: 0.5, InitialSoC: 5})
	if err != nil {
		t.Fatal(err)
	}
	if b2.SoC() != 100*units.KilowattHour {
		t.Fatalf("over-unity SoC = %v, want clamped to capacity", b2.SoC())
	}
}

func TestUsableACReflectsEfficiency(t *testing.T) {
	b := paperBank(t)
	if b.UsableAC() >= b.Usable() {
		t.Fatal("AC-side usable energy must be below cell-side")
	}
}

func TestExplicitRateLimitsKept(t *testing.T) {
	b, err := New(Config{
		Capacity:    100 * units.KilowattHour,
		DoD:         0.5,
		InitialSoC:  1,
		ChargeLimit: 7 * units.Kilowatt,
		DischgLimit: 9 * units.Kilowatt,
		EffIn:       0.9,
		EffOut:      0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.Discharge(1*units.Megawatt, 3600)
	if out.KWh() > 9.01 {
		t.Fatalf("discharge %v kWh exceeds the 9 kW limit", out.KWh())
	}
}
