package dc

import (
	"math"
	"testing"

	"geovmp/internal/battery"
	"geovmp/internal/cooling"
	"geovmp/internal/green"
	"geovmp/internal/power"
	"geovmp/internal/price"
	"geovmp/internal/solar"
	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

func testDC(t *testing.T, idx int) *DC {
	t.Helper()
	bank, err := battery.New(battery.Config{
		Capacity:   100 * units.KilowattHour,
		DoD:        0.5,
		InitialSoC: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tariff := price.ZurichTariff()
	return &DC{
		Index:    idx,
		Name:     "test",
		Servers:  10,
		Model:    power.E5410(),
		Cooling:  cooling.Site{Climate: cooling.Zurich(), Model: cooling.DefaultPUE()},
		Plant:    solar.ZurichPlant(),
		Bank:     bank,
		Tariff:   tariff,
		Forecast: &solar.LastValue{},
		Green:    &green.Controller{Tariff: tariff, Bank: bank},
	}
}

func TestValidateOK(t *testing.T) {
	if err := testDC(t, 0).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*DC)
	}{
		{"no servers", func(d *DC) { d.Servers = 0 }},
		{"nil model", func(d *DC) { d.Model = nil }},
		{"nil bank", func(d *DC) { d.Bank = nil }},
		{"nil green", func(d *DC) { d.Green = nil }},
		{"nil forecast", func(d *DC) { d.Forecast = nil }},
		{"bad model", func(d *DC) { d.Model = &power.ServerModel{Name: "x"} }},
	}
	for _, tt := range tests {
		d := testDC(t, 0)
		tt.mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", tt.name)
		}
	}
}

func TestCPUCapacity(t *testing.T) {
	d := testDC(t, 0)
	if got := d.CPUCapacity(); got != 80 {
		t.Fatalf("CPU capacity = %v, want 80 reference cores", got)
	}
}

func TestMaxITPower(t *testing.T) {
	d := testDC(t, 0)
	// 10 servers x 265 W full load.
	if got := d.MaxITPower(); math.Abs(float64(got)-2650) > 1e-9 {
		t.Fatalf("max IT power = %v, want 2650 W", got)
	}
}

func TestSlotEnergyCeiling(t *testing.T) {
	d := testDC(t, 0)
	ceil := d.SlotEnergyCeiling(0)
	// At least IT power x 3600 x PUE floor.
	min := float64(d.MaxITPower()) * 3600 * 1.12
	if float64(ceil) < min-1 {
		t.Fatalf("ceiling %v below PUE-floored IT energy %v", ceil, min)
	}
}

func TestFleetValidate(t *testing.T) {
	f := Fleet{testDC(t, 0), testDC(t, 1)}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Fleet{testDC(t, 0), testDC(t, 5)}
	if err := bad.Validate(); err == nil {
		t.Fatal("index mismatch accepted")
	}
}

func TestFleetAggregates(t *testing.T) {
	f := Fleet{testDC(t, 0), testDC(t, 1), testDC(t, 2)}
	if f.TotalServers() != 30 {
		t.Fatalf("total servers = %d", f.TotalServers())
	}
	if f.TotalCPUCapacity() != 240 {
		t.Fatalf("total capacity = %v", f.TotalCPUCapacity())
	}
}

func TestSlotEnergyCeilingVariesWithWeather(t *testing.T) {
	d := testDC(t, 0)
	seen := map[string]bool{}
	for sl := timeutil.Slot(0); sl < 48; sl += 6 {
		seen[d.Cooling.Climate.Name] = true
		_ = sl
	}
	a := d.SlotEnergyCeiling(3)  // night
	b := d.SlotEnergyCeiling(14) // afternoon
	if a == b {
		t.Skip("weather produced identical PUE; acceptable but rare")
	}
}
