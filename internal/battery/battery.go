// Package battery models the lithium-ion battery bank attached to each data
// center.
//
// The paper provisions 960/720/480 kWh banks with a 50% depth of discharge
// (DoD), "keeping the remaining capacity in case of outage": the green
// controller may cycle only the top half of the bank. We additionally model
// charge/discharge power limits (C-rate) and a round-trip efficiency,
// without which a battery simulation trivially overestimates arbitrage.
package battery

import (
	"fmt"

	"geovmp/internal/units"
)

// Bank is a stateful battery bank. Create with New; the zero value is an
// empty zero-capacity bank that accepts and delivers nothing.
type Bank struct {
	capacity  units.Energy // full capacity
	floor     units.Energy // minimum state of charge = capacity*(1-DoD)
	soc       units.Energy // current state of charge
	chargeMax units.Power  // maximum charging power (at the AC side)
	dischMax  units.Power  // maximum discharging power (at the AC side)
	effIn     float64      // AC->cell efficiency
	effOut    float64      // cell->AC efficiency
}

// Config parameterizes a bank.
type Config struct {
	Capacity    units.Energy
	DoD         float64     // usable fraction, e.g. 0.5 per the paper
	ChargeLimit units.Power // 0 means capacity/4h (C/4)
	DischgLimit units.Power // 0 means capacity/4h (C/4)
	EffIn       float64     // 0 means 0.95
	EffOut      float64     // 0 means 0.95
	InitialSoC  float64     // initial fraction of capacity; clamped to [1-DoD, 1]
}

// New builds a Bank from cfg.
func New(cfg Config) (*Bank, error) {
	if cfg.Capacity < 0 {
		return nil, fmt.Errorf("battery: negative capacity %v", cfg.Capacity)
	}
	if cfg.DoD < 0 || cfg.DoD > 1 {
		return nil, fmt.Errorf("battery: DoD %v out of [0,1]", cfg.DoD)
	}
	b := &Bank{
		capacity:  cfg.Capacity,
		floor:     units.Energy((1 - cfg.DoD) * float64(cfg.Capacity)),
		chargeMax: cfg.ChargeLimit,
		dischMax:  cfg.DischgLimit,
		effIn:     cfg.EffIn,
		effOut:    cfg.EffOut,
	}
	c4 := units.Power(float64(cfg.Capacity) / (4 * 3600))
	if b.chargeMax <= 0 {
		b.chargeMax = c4
	}
	if b.dischMax <= 0 {
		b.dischMax = c4
	}
	if b.effIn <= 0 || b.effIn > 1 {
		b.effIn = 0.95
	}
	if b.effOut <= 0 || b.effOut > 1 {
		b.effOut = 0.95
	}
	init := units.Clamp(cfg.InitialSoC, 1-cfg.DoD, 1)
	b.soc = units.Energy(init * float64(cfg.Capacity))
	return b, nil
}

// Capacity returns the bank's full capacity.
func (b *Bank) Capacity() units.Energy { return b.capacity }

// Usable returns the energy that can still be drawn before hitting the DoD
// floor, measured at the cell (before output efficiency).
func (b *Bank) Usable() units.Energy {
	u := b.soc - b.floor
	if u < 0 {
		return 0
	}
	return u
}

// UsableAC returns the energy deliverable to the load after output
// efficiency. Placement heuristics size DC energy caps with this value.
func (b *Bank) UsableAC() units.Energy {
	return units.Energy(float64(b.Usable()) * b.effOut)
}

// Headroom returns how much cell energy the bank can still absorb.
func (b *Bank) Headroom() units.Energy {
	h := b.capacity - b.soc
	if h < 0 {
		return 0
	}
	return h
}

// Charge pushes AC power p into the bank for dt seconds and returns the AC
// energy actually consumed from the source (after clipping to the charge
// rate limit and remaining headroom).
func (b *Bank) Charge(p units.Power, dt float64) units.Energy {
	if p <= 0 || dt <= 0 || b.capacity == 0 {
		return 0
	}
	if p > b.chargeMax {
		p = b.chargeMax
	}
	acIn := p.ForDuration(dt)
	cellIn := units.Energy(float64(acIn) * b.effIn)
	if cellIn > b.Headroom() {
		cellIn = b.Headroom()
		acIn = units.Energy(float64(cellIn) / b.effIn)
	}
	b.soc += cellIn
	return acIn
}

// Discharge draws up to AC power p from the bank for dt seconds and returns
// the AC energy actually delivered (after the discharge rate limit, the DoD
// floor and output efficiency).
func (b *Bank) Discharge(p units.Power, dt float64) units.Energy {
	if p <= 0 || dt <= 0 || b.capacity == 0 {
		return 0
	}
	if p > b.dischMax {
		p = b.dischMax
	}
	acOut := p.ForDuration(dt)
	cellOut := units.Energy(float64(acOut) / b.effOut)
	if cellOut > b.Usable() {
		cellOut = b.Usable()
		acOut = units.Energy(float64(cellOut) * b.effOut)
	}
	b.soc -= cellOut
	return acOut
}

// Validate checks the bank's invariants; tests call it after mutation
// sequences.
func (b *Bank) Validate() error {
	if b.soc < b.floor-1e-6 {
		return fmt.Errorf("battery: SoC %v below DoD floor %v", b.soc, b.floor)
	}
	if b.soc > b.capacity+1e-6 {
		return fmt.Errorf("battery: SoC %v above capacity %v", b.soc, b.capacity)
	}
	return nil
}
