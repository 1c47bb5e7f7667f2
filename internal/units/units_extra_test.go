package units

import (
	"math"
	"testing"
)

func TestEnergyStringScales(t *testing.T) {
	tests := []struct {
		e    Energy
		want string
	}{
		{Energy(0.5), "0.500 J"},
		{Energy(-2e3), "-2.000 kJ"},
		{Energy(5e6), "5.000 MJ"},
		{Energy(-3e9), "-3.000 GJ"},
	}
	for _, tt := range tests {
		if got := tt.e.String(); got != tt.want {
			t.Errorf("%v.String() = %q, want %q", float64(tt.e), got, tt.want)
		}
	}
}

func TestPowerStringScales(t *testing.T) {
	if got := Power(10).String(); got != "10.000 W" {
		t.Errorf("watt format: %q", got)
	}
	if got := Power(-5e3).String(); got != "-5.000 kW" {
		t.Errorf("negative kW format: %q", got)
	}
}

func TestDataSizeStringScales(t *testing.T) {
	tests := []struct {
		d    DataSize
		want string
	}{
		{DataSize(512), "512 B"},
		{DataSize(2e3), "2.000 kB"},
		{DataSize(3e12), "3.000 TB"},
	}
	for _, tt := range tests {
		if got := tt.d.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestBandwidthStringScales(t *testing.T) {
	if got := Bandwidth(500).String(); got != "500 b/s" {
		t.Errorf("b/s format: %q", got)
	}
	if got := Bandwidth(25e6).String(); got != "25.00 Mb/s" {
		t.Errorf("Mb/s format: %q", got)
	}
}

func TestMoneyAndStringers(t *testing.T) {
	if got := Money(12.345).String(); got != "12.35 EUR" {
		t.Errorf("money format: %q", got)
	}
	if Frequency(2.3e9).GHz() != 2.3 {
		t.Error("GHz accessor")
	}
}

func TestBitAccessors(t *testing.T) {
	b := Bandwidth(8e9)
	if b.BytesPerSecond() != 1e9 {
		t.Error("bytes accessor")
	}
	if DataSize(5e9).Bytes() != 5e9 {
		t.Error("bytes accessor on data size")
	}
	if DataSize(5e9).GB() != 5 {
		t.Error("GB accessor")
	}
	if DataSize(5e6).MB() != 5 {
		t.Error("MB accessor")
	}
}

func TestWattAccessors(t *testing.T) {
	if Power(1500).KW() != 1.5 {
		t.Error("power accessors")
	}
	if math.Abs(Energy(7.2e6).KWh()-2) > 1e-12 {
		t.Error("KWh accessor")
	}
}
