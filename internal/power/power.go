// Package power models servers: their compute capacity at each DVFS
// frequency level and the electrical power they draw as a function of
// utilization.
//
// The paper targets an Intel Xeon E5410 server with 8 cores and two
// frequency levels (2.0 GHz and 2.3 GHz) and uses the virtualized-server
// power model of Pedram et al. (ICPPW 2010), which is linear in CPU
// utilization between an idle floor and a full-load ceiling, with both
// endpoints depending on the operating frequency. We reproduce that shape
// with E5410-class constants.
//
// Utilization convention: one VM demands u(t) in [0,1] of one *reference
// core*, i.e. a core at the top frequency. A server running at frequency f
// offers Cores*f/fmax reference cores of capacity, so lowering the frequency
// trades capacity for a lower power envelope — the DVFS knob exploited by
// the local controller.
package power

import (
	"fmt"
	"sort"

	"geovmp/internal/units"
)

// FreqLevel is one DVFS operating point of a server.
type FreqLevel struct {
	Freq units.Frequency // core clock
	Idle units.Power     // power at zero utilization
	Full units.Power     // power at full utilization of this level's capacity
}

// ServerModel describes a homogeneous server type.
type ServerModel struct {
	Name   string
	Cores  int
	Levels []FreqLevel // sorted by ascending frequency; last entry is fmax
}

// E5410 returns the paper's server: Intel Xeon E5410, 8 cores, two frequency
// levels. The power constants follow the linear Pedram-style model with
// published E5410-class idle/full draws (the exact testbed numbers are not
// in the paper; README, "Deviations from the paper", item 2).
func E5410() *ServerModel {
	return &ServerModel{
		Name:  "Intel Xeon E5410",
		Cores: 8,
		Levels: []FreqLevel{
			{Freq: 2.0 * units.Gigahertz, Idle: 150 * units.Watt, Full: 230 * units.Watt},
			{Freq: 2.3 * units.Gigahertz, Idle: 165 * units.Watt, Full: 265 * units.Watt},
		},
	}
}

// Validate checks structural invariants of the model.
func (m *ServerModel) Validate() error {
	if m.Cores <= 0 {
		return fmt.Errorf("power: %s: non-positive core count %d", m.Name, m.Cores)
	}
	if len(m.Levels) == 0 {
		return fmt.Errorf("power: %s: no frequency levels", m.Name)
	}
	if !sort.SliceIsSorted(m.Levels, func(i, j int) bool {
		return m.Levels[i].Freq < m.Levels[j].Freq
	}) {
		return fmt.Errorf("power: %s: levels not sorted by frequency", m.Name)
	}
	for i, l := range m.Levels {
		if l.Freq <= 0 {
			return fmt.Errorf("power: %s: level %d has non-positive frequency", m.Name, i)
		}
		if l.Idle < 0 || l.Full < l.Idle {
			return fmt.Errorf("power: %s: level %d has inconsistent power range", m.Name, i)
		}
	}
	return nil
}

// MaxFreq returns the top frequency of the model.
func (m *ServerModel) MaxFreq() units.Frequency {
	return m.Levels[len(m.Levels)-1].Freq
}

// TopLevel returns the index of the highest frequency level.
func (m *ServerModel) TopLevel() int { return len(m.Levels) - 1 }

// Capacity returns the compute capacity, in reference cores, that the server
// offers at frequency level idx.
func (m *ServerModel) Capacity(idx int) float64 {
	l := m.Levels[idx]
	return float64(m.Cores) * float64(l.Freq) / float64(m.MaxFreq())
}

// MaxCapacity returns the capacity at the top frequency (= Cores).
func (m *ServerModel) MaxCapacity() float64 { return float64(m.Cores) }

// Power returns the electrical power drawn at frequency level idx with load
// reference cores in use. Load saturates at the level's capacity; negative
// loads count as zero.
func (m *ServerModel) Power(idx int, load float64) units.Power { return m.Curve(idx).Power(load) }

// Curve is the power curve of one frequency level with its constants taken
// once, for loops that evaluate many loads at one level:
// m.Curve(idx).Power(load) == m.Power(idx, load), bit for bit.
type Curve struct {
	Capacity float64 // the level's capacity, Capacity(idx)
	idle     units.Power
	span     float64 // Full - Idle
}

// Curve returns the power curve of frequency level idx.
func (m *ServerModel) Curve(idx int) Curve {
	l := m.Levels[idx]
	return Curve{Capacity: m.Capacity(idx), idle: l.Idle, span: float64(l.Full - l.Idle)}
}

// Power returns the power drawn with load reference cores in use (see
// ServerModel.Power).
func (c Curve) Power(load float64) units.Power {
	u := units.Clamp(load/c.Capacity, 0, 1)
	return c.idle + units.Power(u*c.span)
}

// LowestLevelFor returns the lowest frequency level whose capacity covers
// load, and whether any level does. The local controller uses it to pick the
// cheapest DVFS point after packing a server.
func (m *ServerModel) LowestLevelFor(load float64) (int, bool) {
	for i := range m.Levels {
		if m.Capacity(i) >= load-1e-9 {
			return i, true
		}
	}
	return m.TopLevel(), false
}

// MarginalPower returns the incremental power cost of one reference core of
// load at the top frequency level. Placement heuristics use it to convert a
// VM's CPU demand into a power estimate without knowing its final server.
func (m *ServerModel) MarginalPower() units.Power {
	top := m.Levels[m.TopLevel()]
	return units.Power(float64(top.Full-top.Idle) / m.MaxCapacity())
}

// IdleShare returns the idle power amortized over the server's capacity at
// the top level, in watts per reference core. Together with MarginalPower it
// yields the "fully loaded cost" of a core used by cap-sizing heuristics.
func (m *ServerModel) IdleShare() units.Power {
	top := m.Levels[m.TopLevel()]
	return units.Power(float64(top.Idle) / m.MaxCapacity())
}
