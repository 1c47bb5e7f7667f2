// Package cooling models the non-IT power overhead of each data center as a
// time-varying Power Usage Effectiveness (PUE).
//
// The paper uses the free-cooling-aware dynamic PUE model of Kim et al.
// (HPCS 2012): when the outside air is cold enough the chillers are bypassed
// and PUE drops near its floor; as the outside temperature rises, mechanical
// cooling ramps and PUE climbs. We drive the PUE with a per-city ambient
// temperature model (diurnal sinusoid plus slow weather noise), which also
// produces the geographic PUE diversity that makes northern DCs attractive.
package cooling

import (
	"math"

	"geovmp/internal/rng"
	"geovmp/internal/timeutil"
)

// Climate describes the ambient conditions of one site for the simulated
// horizon (a single week; seasonal drift is out of scope).
type Climate struct {
	Name      string
	Zone      timeutil.Zone
	MeanC     float64 // average temperature, Celsius
	DiurnalC  float64 // half peak-to-trough daily swing, Celsius
	WeatherC  float64 // amplitude of slow random weather deviation, Celsius
	NoiseSeed uint64  // keys the weather noise stream
}

// Presets for the paper's three cities in a mild spring week.
func Lisbon() Climate {
	return Climate{Name: "Lisbon", Zone: timeutil.ZoneLisbon, MeanC: 17, DiurnalC: 4.5, WeatherC: 2.5, NoiseSeed: 101}
}
func Zurich() Climate {
	return Climate{Name: "Zurich", Zone: timeutil.ZoneZurich, MeanC: 10, DiurnalC: 5.5, WeatherC: 3, NoiseSeed: 102}
}
func Helsinki() Climate {
	return Climate{Name: "Helsinki", Zone: timeutil.ZoneHelsinki, MeanC: 4, DiurnalC: 4, WeatherC: 3, NoiseSeed: 103}
}

// TemperatureAt returns the outside temperature in Celsius at the given
// absolute simulation time (seconds). The diurnal peak sits at 15:00 local
// time; a smooth noise term adds day-to-day weather variation.
func (c Climate) TemperatureAt(seconds float64) float64 {
	h := c.Zone.LocalHour(seconds)
	diurnal := c.DiurnalC * math.Cos((h-15)/24*2*math.Pi)
	// One weather lattice point every 6 hours keeps fronts multi-hour wide.
	weather := (rng.SmoothNoise(seconds/(6*3600), c.NoiseSeed) - 0.5) * 2 * c.WeatherC
	return c.MeanC + diurnal + weather
}

// PUEModel converts outside temperature into PUE, piecewise linearly:
//
//	T <= FreeBelowC           -> Floor              (free cooling)
//	FreeBelowC < T < FullAtC  -> linear ramp
//	T >= FullAtC              -> Ceil               (full mechanical cooling)
type PUEModel struct {
	Floor      float64 // PUE with economizer only
	Ceil       float64 // PUE with chillers at full duty
	FreeBelowC float64 // free cooling threshold
	FullAtC    float64 // temperature at which chillers saturate
}

// DefaultPUE returns a free-cooling model consistent with Kim et al.'s
// reported range (PUE ~1.1 in free cooling up to ~1.6 on hot afternoons).
func DefaultPUE() PUEModel {
	return PUEModel{Floor: 1.12, Ceil: 1.62, FreeBelowC: 13, FullAtC: 32}
}

// At returns the PUE for outside temperature tempC.
func (m PUEModel) At(tempC float64) float64 {
	if tempC <= m.FreeBelowC {
		return m.Floor
	}
	if tempC >= m.FullAtC {
		return m.Ceil
	}
	frac := (tempC - m.FreeBelowC) / (m.FullAtC - m.FreeBelowC)
	return m.Floor + frac*(m.Ceil-m.Floor)
}

// Site couples a climate with a PUE model; it is the cooling view of one DC.
type Site struct {
	Climate Climate
	Model   PUEModel
}

// PUEAt returns the site PUE at the given absolute time (seconds).
func (s Site) PUEAt(seconds float64) float64 {
	return s.Model.At(s.Climate.TemperatureAt(seconds))
}

// MeanPUEOverSlot returns the average PUE across a slot, sampled at 1-minute
// resolution. Placement heuristics use it to estimate next-slot facility
// energy without running the fine loop.
func (s Site) MeanPUEOverSlot(sl timeutil.Slot) float64 {
	const samples = 60
	start := sl.Seconds()
	var sum float64
	for i := 0; i < samples; i++ {
		sum += s.PUEAt(start + float64(i)*timeutil.SlotSeconds/samples)
	}
	return sum / samples
}
