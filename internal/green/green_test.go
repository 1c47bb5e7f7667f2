package green

import (
	"math"
	"testing"
	"testing/quick"

	"geovmp/internal/battery"
	"geovmp/internal/price"
	"geovmp/internal/rng"
	"geovmp/internal/units"
)

func newController(t *testing.T, initSoC float64) *Controller {
	t.Helper()
	b, err := battery.New(battery.Config{
		Capacity:   720 * units.KilowattHour,
		DoD:        0.5,
		InitialSoC: initSoC,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &Controller{Tariff: price.ZurichTariff(), Bank: b}
}

// Zurich peak window is 7-21 local = 6-20 UTC.
const (
	peakUTC    = 12 * 3600.0 // peak in Zurich
	offpeakUTC = 2 * 3600.0  // off-peak in Zurich
)

func TestSurplusChargesBattery(t *testing.T) {
	c := newController(t, 0.6)
	before := c.Bank.Usable()
	d := c.Step(50*units.Kilowatt, 120*units.Kilowatt, peakUTC, 5)
	if d.GridToLoad != 0 || d.GridToBattery != 0 {
		t.Fatalf("grid used despite surplus: %+v", d)
	}
	if d.RenewableUsed != d.Demand {
		t.Fatalf("renewable used %v != demand %v", d.RenewableUsed, d.Demand)
	}
	if d.BatteryIn <= 0 {
		t.Fatal("surplus not stored")
	}
	if c.Bank.Usable() <= before {
		t.Fatal("battery SoC did not grow")
	}
	if d.Cost != 0 {
		t.Fatalf("cost %v on a grid-free step", d.Cost)
	}
}

func TestSurplusBeyondBatteryIsLost(t *testing.T) {
	c := newController(t, 1.0) // battery full
	d := c.Step(10*units.Kilowatt, 500*units.Kilowatt, peakUTC, 5)
	if d.BatteryIn != 0 {
		t.Fatalf("full battery accepted charge: %v", d.BatteryIn)
	}
	wantLost := (490 * units.Kilowatt).ForDuration(5)
	if math.Abs(float64(d.RenewableLost-wantLost)) > 1 {
		t.Fatalf("lost %v, want %v", d.RenewableLost, wantLost)
	}
}

func TestPeakDeficitDischargesBattery(t *testing.T) {
	c := newController(t, 1.0)
	d := c.Step(300*units.Kilowatt, 50*units.Kilowatt, peakUTC, 5)
	if !d.Peak {
		t.Fatal("expected peak window")
	}
	if d.BatteryOut <= 0 {
		t.Fatal("battery idle during peak deficit")
	}
	// Energy conservation.
	sum := d.RenewableUsed + d.BatteryOut + d.GridToLoad
	if math.Abs(float64(sum-d.Demand)) > 1e-6 {
		t.Fatalf("conservation violated: %v vs %v", sum, d.Demand)
	}
}

func TestPeakDeficitGridCoversBeyondBattery(t *testing.T) {
	c := newController(t, 1.0)
	// Demand far above the battery's C/4 discharge limit (180 kW).
	d := c.Step(1000*units.Kilowatt, 0, peakUTC, 5)
	if d.GridToLoad <= 0 {
		t.Fatal("grid unused despite battery rate limit")
	}
	if d.Cost <= 0 {
		t.Fatal("grid energy cost not accounted")
	}
}

func TestOffPeakChargesFromGridAndSparesBattery(t *testing.T) {
	c := newController(t, 0.5) // empty usable range
	before := c.Bank.Usable()
	d := c.Step(200*units.Kilowatt, 20*units.Kilowatt, offpeakUTC, 5)
	if d.Peak {
		t.Fatal("expected off-peak window")
	}
	if d.BatteryOut != 0 {
		t.Fatal("battery used for load during off-peak")
	}
	if d.GridToBattery <= 0 {
		t.Fatal("battery not charged from grid during off-peak")
	}
	if c.Bank.Usable() <= before {
		t.Fatal("SoC did not grow")
	}
	// Load served by renewable + grid only.
	sum := d.RenewableUsed + d.GridToLoad
	if math.Abs(float64(sum-d.Demand)) > 1e-6 {
		t.Fatalf("conservation violated off-peak: %v vs %v", sum, d.Demand)
	}
	// Cost covers both load and charging energy.
	wantCost := c.Tariff.OffPeak.Cost(d.Grid())
	if math.Abs(float64(d.Cost-wantCost)) > 1e-9 {
		t.Fatalf("cost %v, want %v", d.Cost, wantCost)
	}
}

func TestOffPeakStopsChargingWhenFull(t *testing.T) {
	c := newController(t, 1.0)
	d := c.Step(100*units.Kilowatt, 0, offpeakUTC, 5)
	if d.GridToBattery != 0 {
		t.Fatal("charged a full battery")
	}
}

func TestZeroDemandZeroRenewable(t *testing.T) {
	c := newController(t, 0.8)
	d := c.Step(0, 0, peakUTC, 5)
	if d.Demand != 0 || d.GridToLoad != 0 || d.BatteryOut != 0 {
		t.Fatalf("idle step moved energy: %+v", d)
	}
}

func TestBatteryPreservedAcrossDoD(t *testing.T) {
	c := newController(t, 0.6)
	// Long heavy peak: battery must stop at the DoD floor.
	for i := 0; i < 5000; i++ {
		c.Step(500*units.Kilowatt, 0, peakUTC, 5)
	}
	// Floor, not empty: Validate fails once SoC dips below the outage
	// reserve.
	if err := c.Bank.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Bank.Usable() > 1e-6 {
		t.Fatalf("usable energy left unexpectedly: %v", c.Bank.Usable())
	}
}

// TestEnergyConservationProperty fuzzes demand/renewable/time and asserts
// the load is always exactly covered by the three sources.
func TestEnergyConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		b, err := battery.New(battery.Config{
			Capacity:   480 * units.KilowattHour,
			DoD:        0.5,
			InitialSoC: src.Range(0.5, 1),
		})
		if err != nil {
			return false
		}
		c := &Controller{Tariff: price.HelsinkiTariff(), Bank: b}
		for i := 0; i < 300; i++ {
			demand := units.Power(src.Range(0, 800_000))
			renew := units.Power(src.Range(0, 300_000))
			at := src.Range(0, 7*86400)
			d := c.Step(demand, renew, at, 5)
			sum := d.RenewableUsed + d.BatteryOut + d.GridToLoad
			if math.Abs(float64(sum-d.Demand)) > 1e-6 {
				return false
			}
			if d.RenewableUsed < 0 || d.BatteryOut < 0 || d.GridToLoad < 0 ||
				d.GridToBattery < 0 || d.RenewableLost < 0 {
				return false
			}
			if b.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPeakCostHigherThanOffPeakForSameDraw(t *testing.T) {
	cPeak := newController(t, 0.5)
	cOff := newController(t, 0.5)
	// Identical deficit with an empty battery: pay grid either way.
	dPeak := cPeak.Step(400*units.Kilowatt, 0, peakUTC, 5)
	dOff := cOff.Step(400*units.Kilowatt, 0, offpeakUTC, 5)
	if dPeak.Cost <= 0 {
		t.Fatal("no peak cost")
	}
	// Off-peak pays for load AND charging, yet the *rate* is half; for this
	// battery (C/4 = 180 kW) the off-peak total stays below the peak bill.
	if dOff.Cost >= dPeak.Cost {
		t.Fatalf("off-peak bill %v not below peak bill %v", dOff.Cost, dPeak.Cost)
	}
}

func TestGridTotal(t *testing.T) {
	d := Decision{GridToLoad: 100, GridToBattery: 50}
	if d.Grid() != 150 {
		t.Fatalf("grid total %v", d.Grid())
	}
}
