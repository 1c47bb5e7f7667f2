// Package dc composes one geo-distributed data center out of the substrate
// models: a homogeneous server fleet, a cooling site (PUE), a PV plant with
// its forecaster, a battery bank, a grid tariff and the green controller
// that arbitrates among them. The paper's Table I instantiates three of
// these (Lisbon, Zurich, Helsinki).
package dc

import (
	"fmt"

	"geovmp/internal/battery"
	"geovmp/internal/cooling"
	"geovmp/internal/green"
	"geovmp/internal/power"
	"geovmp/internal/price"
	"geovmp/internal/solar"
	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

// DC is one data center. Mutable state (battery charge, forecaster history)
// lives in the referenced components; the rest is immutable configuration.
type DC struct {
	Index    int
	Name     string
	Servers  int
	Model    *power.ServerModel
	Cooling  cooling.Site
	Plant    solar.Plant
	Bank     *battery.Bank
	Tariff   price.Tariff
	Forecast solar.Forecaster
	Green    *green.Controller
}

// Validate checks the composition.
func (d *DC) Validate() error {
	if d.Servers <= 0 {
		return fmt.Errorf("dc %s: no servers", d.Name)
	}
	if d.Model == nil {
		return fmt.Errorf("dc %s: no server model", d.Name)
	}
	if err := d.Model.Validate(); err != nil {
		return fmt.Errorf("dc %s: %w", d.Name, err)
	}
	if d.Bank == nil || d.Green == nil || d.Forecast == nil {
		return fmt.Errorf("dc %s: missing energy components", d.Name)
	}
	return nil
}

// CPUCapacity returns the fleet compute capacity in reference cores at the
// top frequency.
func (d *DC) CPUCapacity() float64 {
	return float64(d.Servers) * d.Model.MaxCapacity()
}

// MaxITPower returns the fleet's worst-case IT power draw.
func (d *DC) MaxITPower() units.Power {
	top := d.Model.TopLevel()
	return units.Power(float64(d.Servers) * float64(d.Model.Power(top, d.Model.MaxCapacity())))
}

// SlotEnergyCeiling returns the most facility energy the DC could consume in
// one slot: the full fleet at peak power times the slot's mean PUE. Cap
// computations clamp against it.
func (d *DC) SlotEnergyCeiling(sl timeutil.Slot) units.Energy {
	pue := d.Cooling.MeanPUEOverSlot(sl)
	return units.Energy(float64(d.MaxITPower().ForDuration(timeutil.SlotSeconds)) * pue)
}

// Fleet is the ordered collection of DCs in the experiment.
type Fleet []*DC

// Validate checks every member and index consistency.
func (f Fleet) Validate() error {
	for i, d := range f {
		if d.Index != i {
			return fmt.Errorf("dc %s: index %d at position %d", d.Name, d.Index, i)
		}
		if err := d.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TotalServers sums the fleet's servers.
func (f Fleet) TotalServers() int {
	n := 0
	for _, d := range f {
		n += d.Servers
	}
	return n
}

// TotalCPUCapacity sums the fleet's compute capacity in reference cores.
func (f Fleet) TotalCPUCapacity() float64 {
	var c float64
	for _, d := range f {
		c += d.CPUCapacity()
	}
	return c
}
