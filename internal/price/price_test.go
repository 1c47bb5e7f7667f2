package price

import (
	"testing"
	"testing/quick"

	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

func TestTariffLevels(t *testing.T) {
	lt := LisbonTariff()
	// 12:00 local = 12:00 UTC in Lisbon -> peak.
	if got := lt.At(12 * 3600); got != lt.Peak {
		t.Fatalf("noon price = %v, want peak %v", got, lt.Peak)
	}
	// 03:00 local -> off-peak.
	if got := lt.At(3 * 3600); got != lt.OffPeak {
		t.Fatalf("3am price = %v, want off-peak %v", got, lt.OffPeak)
	}
}

func TestTariffZoneShift(t *testing.T) {
	he := HelsinkiTariff()
	// 05:30 UTC is 07:30 in Helsinki -> peak window (7-20 local).
	if !he.IsPeakAt(5*3600 + 1800) {
		t.Fatal("05:30 UTC should be peak in Helsinki")
	}
	// The same instant is 05:30 in Lisbon -> off-peak.
	if LisbonTariff().IsPeakAt(5*3600 + 1800) {
		t.Fatal("05:30 UTC should be off-peak in Lisbon")
	}
}

func TestTariffPeriodicOverDays(t *testing.T) {
	zu := ZurichTariff()
	f := func(hour uint8, day uint8) bool {
		h := float64(hour%24) * 3600
		d := float64(day%7) * 86400
		return zu.At(h) == zu.At(h+d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrappingPeakWindow(t *testing.T) {
	tr := Tariff{Name: "wrap", Zone: timeutil.ZoneLisbon, Peak: 0.3, OffPeak: 0.1, PeakStart: 22, PeakEnd: 6}
	if !tr.IsPeakAt(23 * 3600) {
		t.Fatal("23:00 should be inside a 22-06 wrapped window")
	}
	if !tr.IsPeakAt(2 * 3600) {
		t.Fatal("02:00 should be inside a 22-06 wrapped window")
	}
	if tr.IsPeakAt(12 * 3600) {
		t.Fatal("12:00 should be outside a 22-06 wrapped window")
	}
}

func TestAtSlotMatchesAt(t *testing.T) {
	tariffs := []Tariff{LisbonTariff(), ZurichTariff(), HelsinkiTariff()}
	for _, tr := range tariffs {
		for sl := timeutil.Slot(0); sl < timeutil.SlotsPerWeek; sl++ {
			if tr.AtSlot(sl) != tr.At(sl.Seconds()) {
				t.Fatalf("%s: AtSlot(%d) != At(start)", tr.Name, sl)
			}
		}
	}
}

func TestPriceDiversityExists(t *testing.T) {
	// The whole point of geo-distribution: at some hour the cheapest DC must
	// differ from the cheapest at another hour... at minimum the price
	// *values* must differ across DCs somewhere.
	tariffs := []Tariff{LisbonTariff(), ZurichTariff(), HelsinkiTariff()}
	diverse := false
	for h := 0; h < 24; h++ {
		s := float64(h) * 3600
		p0 := tariffs[0].At(s)
		for _, tr := range tariffs[1:] {
			if tr.At(s) != p0 {
				diverse = true
			}
		}
	}
	if !diverse {
		t.Fatal("no price diversity across DCs")
	}
}

func TestPricesPositive(t *testing.T) {
	for _, tr := range []Tariff{LisbonTariff(), ZurichTariff(), HelsinkiTariff()} {
		if tr.Peak <= 0 || tr.OffPeak <= 0 {
			t.Fatalf("%s: non-positive tariff", tr.Name)
		}
		if tr.Peak <= tr.OffPeak {
			t.Fatalf("%s: peak %v not above off-peak %v", tr.Name, tr.Peak, tr.OffPeak)
		}
	}
}

func TestCostIntegration(t *testing.T) {
	tr := HelsinkiTariff()
	e := units.Energy(100 * units.KilowattHour)
	peak := tr.Peak.Cost(e)
	off := tr.OffPeak.Cost(e)
	if peak != 2*off {
		t.Fatalf("peak cost %v should be twice off-peak %v for this tariff", peak, off)
	}
}
