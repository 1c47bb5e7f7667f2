package battery

import "geovmp/internal/units"

// SoC returns the current state of charge.
func (b *Bank) SoC() units.Energy { return b.soc }
