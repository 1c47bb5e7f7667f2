package fault

import (
	"math"
	"reflect"
	"testing"

	"geovmp/internal/timeutil"
)

// FuzzFaultSchedule drives adversarial configs through Validate and, for
// configs Validate accepts, through Compile — the same contract the spec
// fuzzer pins for workloads: Validate never panics on garbage, Compile is
// deterministic, and every compiled table stays inside its documented
// range.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(3, 24, uint64(1), 0.5, 0.1, 0.2, 0.3, 0.25, 0.1, 1.0, 2.0,
		int(KindDC), 1, 0, 2, 3, 0.0)
	f.Add(5, 48, uint64(42), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
		int(KindServer), 0, 0, 0, 8, 0.2)
	f.Add(2, 8, uint64(9), math.NaN(), -1.0, math.Inf(1), 0.5, 1.5, 0.0, -0.1, math.NaN(),
		int(KindLink), 0, 1, -3, 0, 1.5)
	f.Fuzz(func(t *testing.T, n, slots int, seed uint64,
		srvRate, dcRate, linkRate, pvRate, srvFrac, linkFac, pvFrac, mean float64,
		oKind, oDC, oTo, oStart, oSlots int, oFrac float64) {
		if n < 0 {
			n = -n % 9
		}
		n = n%9 + 1
		if slots < 0 {
			slots = -slots
		}
		slots = slots%72 + 1
		cfg := Config{
			Outages: []Outage{{
				Kind: Kind(oKind), DC: oDC, To: oTo,
				Start: clampSlot(oStart), Slots: oSlots, Frac: oFrac,
			}},
			ServerFailRatePerDay: srvRate,
			ServerFailFrac:       srvFrac,
			DCOutageRatePerDay:   dcRate,
			LinkFailRatePerDay:   linkRate,
			LinkDegradeFactor:    linkFac,
			PVDropRatePerDay:     pvRate,
			PVDropFrac:           pvFrac,
			MeanRepairSlots:      mean,
		}
		if err := cfg.Validate(n); err != nil {
			return // rejected garbage must not reach Compile
		}
		// Rates drive per-slot Bernoulli draws; huge finite rates are
		// legal but explode the outage count, so keep the fuzz cheap.
		if cfg.ServerFailRatePerDay+cfg.DCOutageRatePerDay+
			cfg.LinkFailRatePerDay+cfg.PVDropRatePerDay > 1e6 {
			return
		}
		a := Compile(cfg, n, slots, seed)
		b := Compile(cfg, n, slots, seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Compile not deterministic for %+v seed %d", cfg, seed)
		}
		if a.n != n || a.slots != slots {
			t.Fatalf("schedule dims %d×%d, want %d×%d", a.n, a.slots, n, slots)
		}
		for sl := 0; sl < slots; sl++ {
			cap := a.CapFrac(timeutil.Slot(sl))
			pv := a.PVFrac(timeutil.Slot(sl))
			dwn := a.DCDown(timeutil.Slot(sl))
			for d := 0; d < n; d++ {
				if !(cap[d] >= 0 && cap[d] <= 1) {
					t.Fatalf("slot %d dc %d capFrac %v out of [0,1]", sl, d, cap[d])
				}
				if !(pv[d] >= 0 && pv[d] <= 1) {
					t.Fatalf("slot %d dc %d pvFrac %v out of [0,1]", sl, d, pv[d])
				}
				if dwn[d] && cap[d] != 0 {
					t.Fatalf("slot %d dc %d down but capFrac %v", sl, d, cap[d])
				}
			}
			if lf := a.LinkFactor(timeutil.Slot(sl)); lf != nil {
				for i := range lf {
					for j := range lf[i] {
						if !(lf[i][j] >= linkFloor && lf[i][j] <= 1) {
							t.Fatalf("slot %d link %d→%d factor %v out of [%v,1]",
								sl, i, j, lf[i][j], linkFloor)
						}
					}
				}
			}
		}
	})
}

func clampSlot(s int) timeutil.Slot {
	if s < -1000 {
		s = -1000
	}
	if s > 1000 {
		s = 1000
	}
	return timeutil.Slot(s)
}
