package battery

import (
	"math"
	"testing"
	"testing/quick"

	"geovmp/internal/rng"
	"geovmp/internal/units"
)

func paperBank(t *testing.T) *Bank {
	t.Helper()
	b, err := New(Config{
		Capacity:   960 * units.KilowattHour,
		DoD:        0.5,
		InitialSoC: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewDefaults(t *testing.T) {
	b := paperBank(t)
	if b.Capacity() != 960*units.KilowattHour {
		t.Fatalf("capacity = %v", b.Capacity())
	}
	if b.SoC() != b.Capacity() {
		t.Fatalf("initial SoC = %v, want full", b.SoC())
	}
	// Usable = top half of the bank with DoD 0.5.
	if math.Abs(b.Usable().KWh()-480) > 1e-9 {
		t.Fatalf("usable = %v kWh, want 480", b.Usable().KWh())
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Capacity: -1}); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := New(Config{Capacity: 1, DoD: 1.5}); err == nil {
		t.Error("DoD > 1 accepted")
	}
}

func TestDischargeRespectsDoD(t *testing.T) {
	b := paperBank(t)
	// Try to pull far more than the usable half.
	var delivered units.Energy
	for i := 0; i < 100; i++ {
		delivered += b.Discharge(10*units.Megawatt, 3600)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// Deliverable AC energy is usable * effOut = 480 kWh * 0.95.
	want := 480 * 0.95
	if math.Abs(delivered.KWh()-want) > 1 {
		t.Fatalf("delivered %v kWh, want ~%v", delivered.KWh(), want)
	}
	if b.Usable() > 1e-6 {
		t.Fatalf("usable after exhaustion = %v", b.Usable())
	}
}

func TestChargeRespectsCapacity(t *testing.T) {
	b, err := New(Config{Capacity: 100 * units.KilowattHour, DoD: 0.5, InitialSoC: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var consumed units.Energy
	for i := 0; i < 100; i++ {
		consumed += b.Charge(10*units.Megawatt, 3600)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Headroom() > 1e-6 {
		t.Fatalf("headroom after saturation = %v", b.Headroom())
	}
	// AC energy consumed = 50 kWh cell / 0.95.
	want := 50 / 0.95
	if math.Abs(consumed.KWh()-want) > 1 {
		t.Fatalf("consumed %v kWh, want ~%v", consumed.KWh(), want)
	}
}

func TestChargeRateLimit(t *testing.T) {
	b, err := New(Config{Capacity: 400 * units.KilowattHour, DoD: 0.5, InitialSoC: 0.5, ChargeLimit: 10 * units.Kilowatt})
	if err != nil {
		t.Fatal(err)
	}
	got := b.Charge(1*units.Megawatt, 3600) // ask for 1 MW, limit 10 kW
	if math.Abs(got.KWh()-10) > 1e-6 {
		t.Fatalf("accepted %v kWh in 1 h at 10 kW limit, want 10", got.KWh())
	}
}

func TestDischargeRateLimit(t *testing.T) {
	b, err := New(Config{Capacity: 400 * units.KilowattHour, DoD: 0.5, InitialSoC: 1, DischgLimit: 20 * units.Kilowatt})
	if err != nil {
		t.Fatal(err)
	}
	got := b.Discharge(1*units.Megawatt, 1800)
	if math.Abs(got.KWh()-10) > 1e-6 {
		t.Fatalf("delivered %v kWh in 30 min at 20 kW limit, want 10", got.KWh())
	}
}

func TestRoundTripEfficiencyLoses(t *testing.T) {
	b, err := New(Config{Capacity: 100 * units.KilowattHour, DoD: 1, InitialSoC: 0})
	if err != nil {
		t.Fatal(err)
	}
	in := b.Charge(5*units.Kilowatt, 3600)
	out := b.Discharge(100*units.Kilowatt, 3600*10)
	if out >= in {
		t.Fatalf("round trip gained energy: in %v out %v", in, out)
	}
	ratio := float64(out) / float64(in)
	if math.Abs(ratio-0.95*0.95) > 0.01 {
		t.Fatalf("round trip efficiency = %v, want ~0.9", ratio)
	}
}

func TestZeroValueBankInert(t *testing.T) {
	var b Bank
	if b.Charge(1000, 60) != 0 || b.Discharge(1000, 60) != 0 {
		t.Fatal("zero-value bank moved energy")
	}
}

// TestInvariantUnderRandomOps drives a bank with random charge/discharge
// sequences and asserts SoC never leaves [floor, capacity].
func TestInvariantUnderRandomOps(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		b, err := New(Config{Capacity: 720 * units.KilowattHour, DoD: 0.5, InitialSoC: 0.75})
		if err != nil {
			return false
		}
		for i := 0; i < 500; i++ {
			p := units.Power(src.Range(0, 500_000))
			dt := src.Range(1, 600)
			if src.Float64() < 0.5 {
				b.Charge(p, dt)
			} else {
				b.Discharge(p, dt)
			}
			if b.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestEnergyConservation verifies cell-side accounting: energy in * effIn =
// SoC gain, SoC loss * effOut = energy out.
func TestEnergyConservation(t *testing.T) {
	b, err := New(Config{Capacity: 200 * units.KilowattHour, DoD: 1, InitialSoC: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	before := b.SoC()
	in := b.Charge(10*units.Kilowatt, 1800)
	gained := b.SoC() - before
	if math.Abs(float64(gained)-float64(in)*0.95) > 1 {
		t.Fatalf("cell gained %v from AC %v, want x0.95", gained, in)
	}
	before = b.SoC()
	out := b.Discharge(10*units.Kilowatt, 1800)
	lost := before - b.SoC()
	if math.Abs(float64(out)-float64(lost)*0.95) > 1 {
		t.Fatalf("AC out %v from cell loss %v, want x0.95", out, lost)
	}
}
