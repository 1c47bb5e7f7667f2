// Package units provides typed physical quantities used throughout geovmp.
//
// The simulator mixes energies (battery state, DC caps), powers (servers,
// PV), data sizes (VM images, inter-VM volumes), bandwidths and money.
// Mixing those up silently is the classic source of bugs in energy
// simulators, so each quantity gets its own defined type with explicit
// conversion helpers. All types are float64 underneath and cheap to pass by
// value.
package units

import (
	"fmt"
	"math"
)

// Energy is an amount of energy in joules.
type Energy float64

// Common energy quantities.
const (
	Kilojoule    Energy = 1e3
	Megajoule    Energy = 1e6
	Gigajoule    Energy = 1e9
	KilowattHour Energy = 3.6e6
)

// KWh returns e expressed in kilowatt-hours.
func (e Energy) KWh() float64 { return float64(e) / float64(KilowattHour) }

// GJ returns e expressed in gigajoules.
func (e Energy) GJ() float64 { return float64(e) / float64(Gigajoule) }

// String implements fmt.Stringer with an adaptive scale.
func (e Energy) String() string {
	switch {
	case e >= Gigajoule || e <= -Gigajoule:
		return fmt.Sprintf("%.3f GJ", e.GJ())
	case e >= Megajoule || e <= -Megajoule:
		return fmt.Sprintf("%.3f MJ", float64(e)/float64(Megajoule))
	case e >= Kilojoule || e <= -Kilojoule:
		return fmt.Sprintf("%.3f kJ", float64(e)/float64(Kilojoule))
	default:
		return fmt.Sprintf("%.3f J", float64(e))
	}
}

// Power is a rate of energy in watts.
type Power float64

// Common power quantities.
const (
	Watt     Power = 1
	Kilowatt Power = 1e3
	Megawatt Power = 1e6
)

// KW returns p expressed in kilowatts.
func (p Power) KW() float64 { return float64(p) / float64(Kilowatt) }

// String implements fmt.Stringer with an adaptive scale.
func (p Power) String() string {
	switch {
	case p >= Megawatt || p <= -Megawatt:
		return fmt.Sprintf("%.3f MW", float64(p)/float64(Megawatt))
	case p >= Kilowatt || p <= -Kilowatt:
		return fmt.Sprintf("%.3f kW", p.KW())
	default:
		return fmt.Sprintf("%.3f W", float64(p))
	}
}

// ForDuration returns the energy produced or consumed by power p held for
// seconds s.
func (p Power) ForDuration(seconds float64) Energy {
	return Energy(float64(p) * seconds)
}

// OverSeconds returns the average power of energy e spread over seconds s.
// It returns 0 for non-positive durations.
func (e Energy) OverSeconds(seconds float64) Power {
	if seconds <= 0 {
		return 0
	}
	return Power(float64(e) / seconds)
}

// DataSize is an amount of data in bytes.
type DataSize float64

// Common data sizes.
const (
	Kilobyte DataSize = 1e3
	Megabyte DataSize = 1e6
	Gigabyte DataSize = 1e9
	Terabyte DataSize = 1e12
)

// Bytes returns d as a bare float64 number of bytes.
func (d DataSize) Bytes() float64 { return float64(d) }

// MB returns d expressed in megabytes.
func (d DataSize) MB() float64 { return float64(d) / float64(Megabyte) }

// GB returns d expressed in gigabytes.
func (d DataSize) GB() float64 { return float64(d) / float64(Gigabyte) }

// String implements fmt.Stringer with an adaptive scale.
func (d DataSize) String() string {
	switch {
	case d >= Terabyte:
		return fmt.Sprintf("%.3f TB", float64(d)/float64(Terabyte))
	case d >= Gigabyte:
		return fmt.Sprintf("%.3f GB", d.GB())
	case d >= Megabyte:
		return fmt.Sprintf("%.3f MB", d.MB())
	case d >= Kilobyte:
		return fmt.Sprintf("%.3f kB", float64(d)/float64(Kilobyte))
	default:
		return fmt.Sprintf("%.0f B", float64(d))
	}
}

// Bandwidth is a data rate in bits per second. Network gear is specified in
// bits, storage in bytes; keeping bandwidth in bits per second and data in
// bytes with an explicit TransferSeconds conversion avoids the usual ×8
// mistakes.
type Bandwidth float64

// Common bandwidths.
const (
	MegabitPerSecond Bandwidth = 1e6
	GigabitPerSecond Bandwidth = 1e9
)

// BytesPerSecond returns the byte throughput of b.
func (b Bandwidth) BytesPerSecond() float64 { return float64(b) / 8 }

// String implements fmt.Stringer with an adaptive scale.
func (b Bandwidth) String() string {
	switch {
	case b >= GigabitPerSecond:
		return fmt.Sprintf("%.2f Gb/s", float64(b)/float64(GigabitPerSecond))
	case b >= MegabitPerSecond:
		return fmt.Sprintf("%.2f Mb/s", float64(b)/float64(MegabitPerSecond))
	default:
		return fmt.Sprintf("%.0f b/s", float64(b))
	}
}

// TransferSeconds returns the time, in seconds, needed to move d over
// bandwidth b. It returns +Inf for zero or negative bandwidth and non-empty
// payloads, and 0 for empty payloads.
func (b Bandwidth) TransferSeconds(d DataSize) float64 {
	if d <= 0 {
		return 0
	}
	bps := b.BytesPerSecond()
	if bps <= 0 {
		return math.Inf(1)
	}
	return float64(d) / bps
}

// Money is an amount of currency in euros (the paper's DCs are European).
type Money float64

// String implements fmt.Stringer.
func (m Money) String() string { return fmt.Sprintf("%.2f EUR", float64(m)) }

// Price is a cost of energy in euros per kilowatt-hour, the unit tariffs are
// quoted in.
type Price float64

// Cost returns the money owed for energy e at price p.
func (p Price) Cost(e Energy) Money {
	return Money(float64(p) * e.KWh())
}

// String implements fmt.Stringer.
func (p Price) String() string { return fmt.Sprintf("%.4f EUR/kWh", float64(p)) }

// Frequency is a CPU clock rate in hertz.
type Frequency float64

// Common frequencies.
const (
	Gigahertz Frequency = 1e9
)

// GHz returns f expressed in gigahertz.
func (f Frequency) GHz() float64 { return float64(f) / float64(Gigahertz) }

// String implements fmt.Stringer.
func (f Frequency) String() string { return fmt.Sprintf("%.2f GHz", f.GHz()) }

// Clamp returns x bounded to [lo, hi]. It is used pervasively for physical
// quantities that saturate (state of charge, utilization, ...).
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
