package cooling

import (
	"testing"
	"testing/quick"

	"geovmp/internal/timeutil"
)

func TestPUEModelRegions(t *testing.T) {
	m := DefaultPUE()
	tests := []struct {
		temp float64
		want float64
	}{
		{-10, m.Floor},
		{0, m.Floor},
		{13, m.Floor},
		{32, m.Ceil},
		{45, m.Ceil},
	}
	for _, tt := range tests {
		if got := m.At(tt.temp); got != tt.want {
			t.Errorf("PUE(%v) = %v, want %v", tt.temp, got, tt.want)
		}
	}
	mid := m.At((m.FreeBelowC + m.FullAtC) / 2)
	wantMid := (m.Floor + m.Ceil) / 2
	if diff := mid - wantMid; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("mid-range PUE = %v, want %v", mid, wantMid)
	}
}

func TestPUEMonotoneInTemperature(t *testing.T) {
	m := DefaultPUE()
	f := func(a, b float64) bool {
		ta := -20 + mod(a, 70)
		tb := -20 + mod(b, 70)
		if ta > tb {
			ta, tb = tb, ta
		}
		return m.At(ta) <= m.At(tb)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mod(x, m float64) float64 {
	v := x - float64(int(x/m))*m
	if v < 0 {
		v += m
	}
	return v
}

func TestPUEBounds(t *testing.T) {
	for _, site := range []Site{
		{Climate: Lisbon(), Model: DefaultPUE()},
		{Climate: Zurich(), Model: DefaultPUE()},
		{Climate: Helsinki(), Model: DefaultPUE()},
	} {
		for s := 0.0; s < 7*86400; s += 900 {
			p := site.PUEAt(s)
			if p < site.Model.Floor || p > site.Model.Ceil {
				t.Fatalf("%s: PUE %v out of [%v,%v] at t=%v", site.Climate.Name, p, site.Model.Floor, site.Model.Ceil, s)
			}
		}
	}
}

func TestClimateDiurnalShape(t *testing.T) {
	c := Lisbon()
	c.WeatherC = 0 // isolate the diurnal component
	// 15:00 local should be warmer than 03:00 local on the same day.
	afternoon := c.TemperatureAt(15 * 3600)
	night := c.TemperatureAt(3 * 3600)
	if afternoon <= night {
		t.Fatalf("afternoon %v not warmer than night %v", afternoon, night)
	}
}

func TestClimateOrdering(t *testing.T) {
	// Weekly mean temperatures should preserve Lisbon > Zurich > Helsinki,
	// which is what creates the paper's free-cooling diversity.
	mean := func(c Climate) float64 {
		var sum float64
		n := 0
		for s := 0.0; s < 7*86400; s += 3600 {
			sum += c.TemperatureAt(s)
			n++
		}
		return sum / float64(n)
	}
	li, zu, he := mean(Lisbon()), mean(Zurich()), mean(Helsinki())
	if !(li > zu && zu > he) {
		t.Fatalf("mean temps Lisbon=%v Zurich=%v Helsinki=%v not ordered", li, zu, he)
	}
}

func TestTemperatureDeterministic(t *testing.T) {
	c := Zurich()
	if c.TemperatureAt(12345) != c.TemperatureAt(12345) {
		t.Fatal("temperature not deterministic")
	}
}

func TestMeanPUEOverSlotWithinBounds(t *testing.T) {
	s := Site{Climate: Lisbon(), Model: DefaultPUE()}
	for sl := timeutil.Slot(0); sl < 48; sl++ {
		m := s.MeanPUEOverSlot(sl)
		if m < s.Model.Floor-1e-9 || m > s.Model.Ceil+1e-9 {
			t.Fatalf("mean PUE %v out of model range at slot %d", m, sl)
		}
	}
}
