// Package price models the grid electricity tariffs of each data center.
//
// The paper uses a "two-level real electricity price scenario": each DC pays
// a peak rate during its local daytime window and an off-peak rate
// otherwise. Because the three cities sit in different time zones and
// markets, the *cheapest* DC changes over the day — the temporal and
// regional diversity that Pri-aware and the proposed controller arbitrage.
package price

import (
	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

// Tariff is a two-level time-of-use electricity price in DC-local time.
type Tariff struct {
	Name      string
	Zone      timeutil.Zone
	Peak      units.Price // rate inside the peak window
	OffPeak   units.Price // rate outside it
	PeakStart int         // local hour the peak window opens (inclusive)
	PeakEnd   int         // local hour it closes (exclusive)
}

// Presets for the paper's three sites. Rates approximate 2015-era industrial
// tariffs with regional spread (README, "Deviations from the paper", item 3).
func LisbonTariff() Tariff {
	return Tariff{Name: "Lisbon", Zone: timeutil.ZoneLisbon, Peak: 0.22, OffPeak: 0.11, PeakStart: 8, PeakEnd: 22}
}
func ZurichTariff() Tariff {
	return Tariff{Name: "Zurich", Zone: timeutil.ZoneZurich, Peak: 0.26, OffPeak: 0.13, PeakStart: 7, PeakEnd: 21}
}
func HelsinkiTariff() Tariff {
	return Tariff{Name: "Helsinki", Zone: timeutil.ZoneHelsinki, Peak: 0.16, OffPeak: 0.08, PeakStart: 7, PeakEnd: 20}
}

// inPeakLocal reports whether local hour h falls inside the peak window,
// handling windows that wrap midnight.
func (t Tariff) inPeakLocal(h int) bool {
	if t.PeakStart <= t.PeakEnd {
		return h >= t.PeakStart && h < t.PeakEnd
	}
	return h >= t.PeakStart || h < t.PeakEnd
}

// IsPeakAt reports whether the peak rate applies at the given absolute
// simulation time in seconds. The green controller branches on this.
func (t Tariff) IsPeakAt(seconds float64) bool {
	return t.inPeakLocal(int(t.Zone.LocalHour(seconds)))
}

// At returns the price at the given absolute simulation time in seconds.
func (t Tariff) At(seconds float64) units.Price {
	if t.IsPeakAt(seconds) {
		return t.Peak
	}
	return t.OffPeak
}

// AtSlot returns the price at the start of slot sl. Tariff windows are
// aligned to whole hours, so the price is constant within a slot.
func (t Tariff) AtSlot(sl timeutil.Slot) units.Price {
	return t.At(sl.Seconds())
}
