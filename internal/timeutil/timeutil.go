// Package timeutil defines the simulation's notion of time.
//
// The paper runs three nested time scales:
//
//   - the 5 s sampling/green-controller step (Step),
//   - the 1 h global/local controller slot (Slot),
//   - the one-week experiment horizon.
//
// Simulation time is an integer count of steps from the experiment start
// (taken to be midnight UTC of day 0), which keeps slot arithmetic exact.
// Each data center lives in its own time zone; tariffs and solar position
// are functions of *local* time, which is where the paper's geographic
// diversity comes from.
package timeutil

import "fmt"

// StepSeconds is the fine-grained control period of the green controller and
// the sampling period of the utilization traces (the paper samples "every 5
// seconds").
const StepSeconds = 5

// SlotSeconds is the period of the global and local placement controllers
// ("invoked every one hour").
const SlotSeconds = 3600

// StepsPerSlot is the number of fine steps per placement slot.
const StepsPerSlot = SlotSeconds / StepSeconds

// HoursPerDay and related calendar constants.
const (
	HoursPerDay  = 24
	SlotsPerDay  = 24
	SlotsPerWeek = 7 * SlotsPerDay
)

// Step is a count of 5-second steps since the experiment start.
type Step int64

// Slot is a count of one-hour placement slots since the experiment start.
type Slot int64

// Seconds returns the absolute simulation time of s in seconds.
func (s Step) Seconds() float64 { return float64(s) * StepSeconds }

// Slot returns the placement slot containing s.
func (s Step) Slot() Slot { return Slot(s / StepsPerSlot) }

// Start returns the first step of slot sl.
func (sl Slot) Start() Step { return Step(sl) * StepsPerSlot }

// Seconds returns the absolute simulation time of the start of sl.
func (sl Slot) Seconds() float64 { return float64(sl) * SlotSeconds }

// HourUTC returns the hour-of-day in UTC, in [0, 24).
func (sl Slot) HourUTC() int { return int(sl % SlotsPerDay) }

// Day returns the day index containing sl.
func (sl Slot) Day() int { return int(sl / SlotsPerDay) }

// String implements fmt.Stringer.
func (sl Slot) String() string {
	return fmt.Sprintf("day %d %02d:00", sl.Day(), sl.HourUTC())
}

// Zone is a fixed UTC offset in hours. The original experiment spans Lisbon
// (UTC+0/+1), Zurich (UTC+1/+2) and Helsinki (UTC+2/+3); we use standard
// winter offsets and ignore DST, which only shifts tariff windows by an
// hour.
type Zone int

// Standard-time zones for the paper's three cities.
const (
	ZoneLisbon   Zone = 0
	ZoneZurich   Zone = 1
	ZoneHelsinki Zone = 2
)

// LocalHour converts an absolute simulation time in seconds to the local
// hour-of-day in [0, 24) for the zone, as a float (fractional hours).
func (z Zone) LocalHour(seconds float64) float64 {
	h := seconds/3600 + float64(z)
	h -= float64(int(h/24)) * 24
	if h < 0 {
		h += 24
	}
	return h
}

// Horizon describes an experiment duration.
type Horizon struct {
	Slots Slot // number of 1 h slots simulated
}

// Week returns the paper's one-week horizon.
func Week() Horizon { return Horizon{Slots: SlotsPerWeek} }

// Days returns an n-day horizon.
func Days(n int) Horizon { return Horizon{Slots: Slot(n * SlotsPerDay)} }

// Hours returns an n-hour horizon.
func Hours(n int) Horizon { return Horizon{Slots: Slot(n)} }

// Steps returns the total number of fine steps in the horizon.
func (h Horizon) Steps() Step { return Step(h.Slots) * StepsPerSlot }
