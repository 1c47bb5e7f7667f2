package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEnergyConversions(t *testing.T) {
	tests := []struct {
		name string
		e    Energy
		want float64
		get  func(Energy) float64
	}{
		{"kWh of 3.6 MJ", Energy(3.6e6), 1, Energy.KWh},
		{"GJ of 2e9 J", Energy(2e9), 2, Energy.GJ},
		{"kWh constant", KilowattHour, 1, Energy.KWh},
	}
	for _, tt := range tests {
		if got := tt.get(tt.e); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("%s: got %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestPowerEnergyRoundTrip(t *testing.T) {
	p := Power(2500) // 2.5 kW
	e := p.ForDuration(7200)
	if math.Abs(e.KWh()-5) > 1e-9 {
		t.Fatalf("2.5 kW for 2 h = %v kWh, want 5", e.KWh())
	}
	back := e.OverSeconds(7200)
	if math.Abs(float64(back-p)) > 1e-9 {
		t.Fatalf("round trip power = %v, want %v", back, p)
	}
}

func TestOverSecondsZeroDuration(t *testing.T) {
	if got := Energy(100).OverSeconds(0); got != 0 {
		t.Fatalf("OverSeconds(0) = %v, want 0", got)
	}
	if got := Energy(100).OverSeconds(-5); got != 0 {
		t.Fatalf("OverSeconds(-5) = %v, want 0", got)
	}
}

func TestBandwidthTransferSeconds(t *testing.T) {
	tests := []struct {
		name string
		b    Bandwidth
		d    DataSize
		want float64
	}{
		{"1 GB over 1 Gb/s", GigabitPerSecond, Gigabyte, 8},
		{"10 MB over 10 Gb/s", 10 * GigabitPerSecond, 10 * Megabyte, 0.008},
		{"empty payload", GigabitPerSecond, 0, 0},
	}
	for _, tt := range tests {
		if got := tt.b.TransferSeconds(tt.d); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("%s: got %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestBandwidthTransferSecondsZeroBandwidth(t *testing.T) {
	got := Bandwidth(0).TransferSeconds(Megabyte)
	if !math.IsInf(got, 1) {
		t.Fatalf("transfer over zero bandwidth = %v, want +Inf", got)
	}
}

func TestPriceCost(t *testing.T) {
	p := Price(0.20) // 0.20 EUR/kWh
	e := Energy(10 * KilowattHour)
	if got := p.Cost(e); math.Abs(float64(got)-2.0) > 1e-9 {
		t.Fatalf("cost = %v, want 2.00 EUR", got)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		x, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tt := range tests {
		if got := Clamp(tt.x, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tt.x, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestClampProperty(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		got := Clamp(x, -1, 1)
		return got >= -1 && got <= 1 && (x < -1 || x > 1 || got == x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringFormats(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{Energy(2.5e9).String(), "2.500 GJ"},
		{Energy(1500).String(), "1.500 kJ"},
		{Power(1500).String(), "1.500 kW"},
		{Power(3.2e6).String(), "3.200 MW"},
		{DataSize(10e6).String(), "10.000 MB"},
		{DataSize(4e9).String(), "4.000 GB"},
		{Bandwidth(100e9).String(), "100.00 Gb/s"},
		{Frequency(2.3e9).String(), "2.30 GHz"},
		{Price(0.2).String(), "0.2000 EUR/kWh"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("String() = %q, want %q", tt.got, tt.want)
		}
	}
}

func TestTransferSecondsMonotoneInVolume(t *testing.T) {
	f := func(a, b float64) bool {
		va := DataSize(math.Abs(a))
		vb := DataSize(math.Abs(b))
		if va > vb {
			va, vb = vb, va
		}
		bw := Bandwidth(1e9)
		return bw.TransferSeconds(va) <= bw.TransferSeconds(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
