package power

import (
	"math"
	"testing"
	"testing/quick"

	"geovmp/internal/units"
)

func TestE5410Valid(t *testing.T) {
	m := E5410()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Cores != 8 {
		t.Fatalf("cores = %d, want 8", m.Cores)
	}
	if len(m.Levels) != 2 {
		t.Fatalf("levels = %d, want 2", len(m.Levels))
	}
	if m.MaxFreq() != 2.3*units.Gigahertz {
		t.Fatalf("max freq = %v", m.MaxFreq())
	}
}

func TestCapacityScalesWithFrequency(t *testing.T) {
	m := E5410()
	top := m.Capacity(m.TopLevel())
	if top != 8 {
		t.Fatalf("top capacity = %v, want 8 reference cores", top)
	}
	low := m.Capacity(0)
	want := 8 * 2.0 / 2.3
	if math.Abs(low-want) > 1e-9 {
		t.Fatalf("low capacity = %v, want %v", low, want)
	}
	if low >= top {
		t.Fatal("lower frequency must offer less capacity")
	}
}

func TestPowerEndpoints(t *testing.T) {
	m := E5410()
	for idx, l := range m.Levels {
		if got := m.Power(idx, 0); got != l.Idle {
			t.Errorf("level %d idle power = %v, want %v", idx, got, l.Idle)
		}
		if got := m.Power(idx, m.Capacity(idx)); math.Abs(float64(got-l.Full)) > 1e-9 {
			t.Errorf("level %d full power = %v, want %v", idx, got, l.Full)
		}
	}
}

func TestPowerMonotoneInLoad(t *testing.T) {
	m := E5410()
	f := func(a, b float64) bool {
		la := math.Abs(math.Mod(a, 8))
		lb := math.Abs(math.Mod(b, 8))
		if la > lb {
			la, lb = lb, la
		}
		for idx := range m.Levels {
			if m.Power(idx, la) > m.Power(idx, lb)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPowerSaturates(t *testing.T) {
	m := E5410()
	over := m.Power(m.TopLevel(), 100)
	full := m.Levels[m.TopLevel()].Full
	if over != full {
		t.Fatalf("overloaded power = %v, want saturation at %v", over, full)
	}
	neg := m.Power(0, -3)
	if neg != m.Levels[0].Idle {
		t.Fatalf("negative load power = %v, want idle %v", neg, m.Levels[0].Idle)
	}
}

func TestLowerFrequencySavesPowerAtSameLoad(t *testing.T) {
	// The DVFS rationale: for any load both levels can host, the lower level
	// must draw no more power.
	m := E5410()
	for load := 0.0; load <= m.Capacity(0); load += 0.5 {
		if m.Power(0, load) > m.Power(1, load) {
			t.Fatalf("load %v: low level draws %v > high level %v", load, m.Power(0, load), m.Power(1, load))
		}
	}
}

func TestLowestLevelFor(t *testing.T) {
	m := E5410()
	tests := []struct {
		load     float64
		want     int
		feasible bool
	}{
		{0, 0, true},
		{5, 0, true},
		{6.95, 0, true}, // 8*2/2.3 = 6.956..
		{7.2, 1, true},
		{8, 1, true},
		{8.5, 1, false},
	}
	for _, tt := range tests {
		got, ok := m.LowestLevelFor(tt.load)
		if got != tt.want || ok != tt.feasible {
			t.Errorf("LowestLevelFor(%v) = (%d,%v), want (%d,%v)", tt.load, got, ok, tt.want, tt.feasible)
		}
	}
}

// TestEnergyFor checks an idle hour at the top level: the model's power
// held over a duration, as the green controller turns each fine step's
// demand into energy.
func TestEnergyFor(t *testing.T) {
	m := E5410()
	e := m.Power(m.TopLevel(), 0).ForDuration(3600)
	want := units.Energy(165 * 3600)
	if math.Abs(float64(e-want)) > 1e-6 {
		t.Fatalf("idle hour energy = %v, want %v", e, want)
	}
}

func TestMarginalAndIdleShare(t *testing.T) {
	m := E5410()
	// (265-165)/8 = 12.5 W per reference core.
	if got := m.MarginalPower(); math.Abs(float64(got)-12.5) > 1e-9 {
		t.Fatalf("marginal power = %v, want 12.5 W", got)
	}
	// 165/8 = 20.625 W
	if got := m.IdleShare(); math.Abs(float64(got)-20.625) > 1e-9 {
		t.Fatalf("idle share = %v, want 20.625 W", got)
	}
}

func TestValidateCatchesBadModels(t *testing.T) {
	tests := []struct {
		name string
		m    ServerModel
	}{
		{"no cores", ServerModel{Name: "x", Cores: 0, Levels: []FreqLevel{{Freq: 1, Idle: 1, Full: 2}}}},
		{"no levels", ServerModel{Name: "x", Cores: 1}},
		{"unsorted", ServerModel{Name: "x", Cores: 1, Levels: []FreqLevel{{Freq: 2, Idle: 1, Full: 2}, {Freq: 1, Idle: 1, Full: 2}}}},
		{"full<idle", ServerModel{Name: "x", Cores: 1, Levels: []FreqLevel{{Freq: 1, Idle: 5, Full: 2}}}},
		{"zero freq", ServerModel{Name: "x", Cores: 1, Levels: []FreqLevel{{Freq: 0, Idle: 1, Full: 2}}}},
	}
	for _, tt := range tests {
		if err := tt.m.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", tt.name)
		}
	}
}
