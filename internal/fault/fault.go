// Package fault compiles deterministic failure schedules for the
// simulator: server-batch outages that shave a fraction of one DC's
// fleet, whole-DC outages, inter-DC link partitions/degradations, and
// PV-plant dropouts — each with a repair time.
//
// Like workloads, a schedule is compiled once per scenario×seed into
// flat per-slot tables and then only read during simulation, so results
// are bit-identical at any parallelism. Failures come from two sources
// that compose: an explicit window list (Outages) for pinned reference
// scenarios, and per-day stochastic rates drawn from derived rng
// sub-streams (one stream per failure kind, slot-major / target-minor
// draw order, so adding one kind never perturbs another).
package fault

import (
	"fmt"
	"math"

	"geovmp/internal/rng"
	"geovmp/internal/timeutil"
)

// Kind discriminates failure targets.
type Kind int

// Failure kinds.
const (
	// KindServer takes down a fraction (Frac) of one DC's servers.
	KindServer Kind = iota + 1
	// KindDC takes down a whole data center: capacity zero, all
	// resident VMs must evacuate, storage shards there unavailable.
	KindDC
	// KindLink degrades the directed DC→To link: effective bandwidth is
	// multiplied by Frac (0 models a partition; the compiler floors the
	// factor at a small positive value so latency math stays finite).
	KindLink
	// KindPV drops a fraction (Frac) of one DC's PV production.
	KindPV
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindServer:
		return "server"
	case KindDC:
		return "dc"
	case KindLink:
		return "link"
	case KindPV:
		return "pv"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// linkFloor is the minimum effective link factor: a "partition" keeps a
// trickle of bandwidth so transfer-time math stays finite, and the huge
// resulting latencies do the punishing.
const linkFloor = 1e-3

// Outage is one explicit failure window, used to pin reference
// schedules (the geo5dc-faulty preset) independent of the seed.
type Outage struct {
	Kind Kind `json:"kind"`
	// DC is the failing data center (for KindLink, the link source).
	DC int `json:"dc"`
	// To is the link destination; only meaningful for KindLink.
	To int `json:"to,omitempty"`
	// Start is the first affected slot.
	Start timeutil.Slot `json:"start"`
	// Slots is the outage duration in slots (the repair time).
	Slots int `json:"slots"`
	// Frac is the kind-specific severity: fraction of servers lost
	// (KindServer), remaining link-bandwidth factor (KindLink), or
	// fraction of PV lost (KindPV). Ignored for KindDC.
	Frac float64 `json:"frac,omitempty"`
}

// target identifies what an outage window hits, for overlap checks.
func (o Outage) target() [3]int { return [3]int{int(o.Kind), o.DC, o.To} }

// Config declares a failure model. The zero value disables fault
// injection entirely (Enabled returns false) and the engine takes the
// exact code path it takes today.
type Config struct {
	// Outages are explicit pinned failure windows.
	Outages []Outage `json:"outages,omitempty"`

	// ServerFailRatePerDay is the expected number of server-batch
	// failures per DC per day; each takes down ServerFailFrac of the
	// DC's fleet until repaired.
	ServerFailRatePerDay float64 `json:"server_fail_rate_per_day,omitempty"`
	// ServerFailFrac is the fleet fraction lost per stochastic server
	// failure, in (0,1]. Zero selects 0.125.
	ServerFailFrac float64 `json:"server_fail_frac,omitempty"`
	// DCOutageRatePerDay is the expected number of whole-DC outages per
	// DC per day.
	DCOutageRatePerDay float64 `json:"dc_outage_rate_per_day,omitempty"`
	// LinkFailRatePerDay is the expected number of link degradations per
	// directed DC pair per day; each multiplies the link bandwidth by
	// LinkDegradeFactor until repaired.
	LinkFailRatePerDay float64 `json:"link_fail_rate_per_day,omitempty"`
	// LinkDegradeFactor is the remaining-bandwidth factor of a
	// stochastic link failure, in (0,1]. Zero selects 0.1.
	LinkDegradeFactor float64 `json:"link_degrade_factor,omitempty"`
	// PVDropRatePerDay is the expected number of PV dropouts per DC per
	// day; each removes PVDropFrac of production until repaired.
	PVDropRatePerDay float64 `json:"pv_drop_rate_per_day,omitempty"`
	// PVDropFrac is the production fraction lost per PV dropout, in
	// (0,1]. Zero selects 1 (total dropout).
	PVDropFrac float64 `json:"pv_drop_frac,omitempty"`

	// MeanRepairSlots is the mean repair time of stochastic failures in
	// slots (durations are 1 + Exp(mean-1), so every failure lasts at
	// least one slot). Zero selects 2.
	MeanRepairSlots float64 `json:"mean_repair_slots,omitempty"`

	// EvacMovesPerSlot caps emergency evacuation migrations per slot:
	// zero is unlimited, negative disables forced evacuation entirely
	// (stranded VMs just accrue downtime). The evacuation budget is
	// separate from the epoch migration budget — emergencies do not eat
	// the optimizer's allowance.
	EvacMovesPerSlot int `json:"evac_moves_per_slot,omitempty"`
}

// Enabled reports whether the config injects any fault.
func (c Config) Enabled() bool {
	return len(c.Outages) > 0 || c.ServerFailRatePerDay > 0 ||
		c.DCOutageRatePerDay > 0 || c.LinkFailRatePerDay > 0 ||
		c.PVDropRatePerDay > 0
}

// Validate checks the config against a fleet of n DCs. It never
// panics: NaN and negative rates, out-of-range fractions, bad windows
// and overlapping windows on the same target are all rejected with
// errors (the fuzz harness drives adversarial values through here).
func (c Config) Validate(n int) error {
	if err := nonNegRate("server_fail_rate_per_day", c.ServerFailRatePerDay); err != nil {
		return err
	}
	if err := nonNegRate("dc_outage_rate_per_day", c.DCOutageRatePerDay); err != nil {
		return err
	}
	if err := nonNegRate("link_fail_rate_per_day", c.LinkFailRatePerDay); err != nil {
		return err
	}
	if err := nonNegRate("pv_drop_rate_per_day", c.PVDropRatePerDay); err != nil {
		return err
	}
	if err := optFrac01("server_fail_frac", c.ServerFailFrac); err != nil {
		return err
	}
	if err := optFrac01("link_degrade_factor", c.LinkDegradeFactor); err != nil {
		return err
	}
	if err := optFrac01("pv_drop_frac", c.PVDropFrac); err != nil {
		return err
	}
	if c.MeanRepairSlots != 0 && !(c.MeanRepairSlots > 0 && c.MeanRepairSlots < math.Inf(1)) {
		return fmt.Errorf("fault: mean_repair_slots %v out of range", c.MeanRepairSlots)
	}
	for i, o := range c.Outages {
		if err := o.validate(n); err != nil {
			return fmt.Errorf("fault: outage %d: %w", i, err)
		}
		// Overlapping windows on the same target are almost always a
		// config typo and would make severity composition ambiguous.
		for j := 0; j < i; j++ {
			p := c.Outages[j]
			if p.target() != o.target() {
				continue
			}
			if o.Start < p.Start+timeutil.Slot(p.Slots) && p.Start < o.Start+timeutil.Slot(o.Slots) {
				return fmt.Errorf("fault: outages %d and %d overlap on target %v/%d", j, i, o.Kind, o.DC)
			}
		}
	}
	return nil
}

func (o Outage) validate(n int) error {
	switch o.Kind {
	case KindServer, KindDC, KindPV:
	case KindLink:
		if o.To < 0 || o.To >= n {
			return fmt.Errorf("link destination %d out of range [0,%d)", o.To, n)
		}
		if o.To == o.DC {
			return fmt.Errorf("link outage with to == dc == %d", o.DC)
		}
	default:
		return fmt.Errorf("unknown kind %d", int(o.Kind))
	}
	if o.DC < 0 || o.DC >= n {
		return fmt.Errorf("dc %d out of range [0,%d)", o.DC, n)
	}
	if o.Start < 0 {
		return fmt.Errorf("negative start slot %d", o.Start)
	}
	if o.Slots <= 0 {
		return fmt.Errorf("non-positive duration %d", o.Slots)
	}
	switch o.Kind {
	case KindServer, KindPV:
		if !(o.Frac > 0 && o.Frac <= 1) {
			return fmt.Errorf("%v frac %v out of (0,1]", o.Kind, o.Frac)
		}
	case KindLink:
		if !(o.Frac >= 0 && o.Frac < 1) {
			return fmt.Errorf("link factor %v out of [0,1)", o.Frac)
		}
	}
	return nil
}

// nonNegRate rejects NaN, Inf and negative rates. The !(x >= 0)
// comparison is deliberately NaN-catching.
func nonNegRate(name string, x float64) error {
	if !(x >= 0) || math.IsInf(x, 1) {
		return fmt.Errorf("fault: %s %v out of range", name, x)
	}
	return nil
}

// optFrac01 accepts 0 (meaning "use the default") or a value in (0,1].
func optFrac01(name string, x float64) error {
	if x == 0 {
		return nil
	}
	if !(x > 0 && x <= 1) {
		return fmt.Errorf("fault: %s %v out of range", name, x)
	}
	return nil
}

func (c Config) serverFrac() float64 {
	if c.ServerFailFrac > 0 {
		return c.ServerFailFrac
	}
	return 0.125
}

func (c Config) linkFactor() float64 {
	if c.LinkDegradeFactor > 0 {
		return c.LinkDegradeFactor
	}
	return 0.1
}

func (c Config) pvFrac() float64 {
	if c.PVDropFrac > 0 {
		return c.PVDropFrac
	}
	return 1
}

func (c Config) repairSlots() float64 {
	if c.MeanRepairSlots > 0 {
		return c.MeanRepairSlots
	}
	return 2
}

// Transition is one DC availability flip, in slot order; the serve
// daemon's event log consumes these to re-place around outages online.
type Transition struct {
	Slot timeutil.Slot
	DC   int
	Down bool
}

// Schedule is a compiled failure timeline: flat per-slot tables the
// engine reads without further random draws.
type Schedule struct {
	n     int
	slots int

	// capFrac[slot*n+dc] is the remaining server-capacity fraction.
	capFrac []float64
	// dcDown[slot*n+dc] marks a whole-DC outage.
	dcDown []bool
	// pvFrac[slot*n+dc] is the remaining PV-production fraction.
	pvFrac []float64
	// link[slot] is a n×n remaining-bandwidth factor matrix, nil for
	// slots with no link fault (the common case) so the network model
	// can skip the multiply entirely.
	link [][][]float64
}

func (s *Schedule) clampRow(sl timeutil.Slot) int {
	i := int(sl)
	if i < 0 {
		i = 0
	}
	if i >= s.slots {
		i = s.slots - 1
	}
	return i * s.n
}

// CapFrac returns the per-DC remaining capacity fractions for slot sl
// (1 everywhere when healthy). The returned slice aliases the schedule;
// callers must not mutate it.
func (s *Schedule) CapFrac(sl timeutil.Slot) []float64 {
	r := s.clampRow(sl)
	return s.capFrac[r : r+s.n]
}

// DCDown returns the per-DC whole-outage flags for slot sl.
func (s *Schedule) DCDown(sl timeutil.Slot) []bool {
	r := s.clampRow(sl)
	return s.dcDown[r : r+s.n]
}

// PVFrac returns the per-DC remaining PV fractions for slot sl.
func (s *Schedule) PVFrac(sl timeutil.Slot) []float64 {
	r := s.clampRow(sl)
	return s.pvFrac[r : r+s.n]
}

// LinkFactor returns the n×n remaining-bandwidth factors for slot sl,
// or nil when every link is healthy that slot.
func (s *Schedule) LinkFactor(sl timeutil.Slot) [][]float64 {
	i := int(sl)
	if i < 0 || i >= s.slots {
		return nil
	}
	return s.link[i]
}

// DCTransitions returns every whole-DC up/down flip in (slot, dc)
// order, including slot-0 initial downs. Serve replay logs append these
// as fault events.
func (s *Schedule) DCTransitions() []Transition {
	var out []Transition
	prev := make([]bool, s.n)
	for sl := 0; sl < s.slots; sl++ {
		r := sl * s.n
		for d := 0; d < s.n; d++ {
			if s.dcDown[r+d] != prev[d] {
				out = append(out, Transition{Slot: timeutil.Slot(sl), DC: d, Down: s.dcDown[r+d]})
				prev[d] = s.dcDown[r+d]
			}
		}
	}
	return out
}

// Compile expands the config into per-slot tables for n DCs over the
// given horizon. Stochastic draws come from sub-streams of seed derived
// per failure kind, in slot-major / target-minor order, so the
// schedule is a pure function of (config, n, slots, seed).
func Compile(cfg Config, n, slots int, seed uint64) *Schedule {
	if n <= 0 || slots <= 0 {
		n, slots = max(n, 1), max(slots, 1)
	}
	s := &Schedule{
		n:       n,
		slots:   slots,
		capFrac: make([]float64, n*slots),
		dcDown:  make([]bool, n*slots),
		pvFrac:  make([]float64, n*slots),
		link:    make([][][]float64, slots),
	}
	for i := range s.capFrac {
		s.capFrac[i] = 1
		s.pvFrac[i] = 1
	}

	for _, o := range cfg.Outages {
		s.apply(o)
	}

	base := rng.New(seed).Derive("fault")
	perSlot := func(rate float64) float64 { return rate / timeutil.SlotsPerDay }
	mean := cfg.repairSlots()

	if cfg.ServerFailRatePerDay > 0 {
		src, p := base.Derive("server"), perSlot(cfg.ServerFailRatePerDay)
		for sl := 0; sl < slots; sl++ {
			for d := 0; d < n; d++ {
				if src.Float64() < p {
					s.apply(Outage{Kind: KindServer, DC: d, Start: timeutil.Slot(sl),
						Slots: duration(src, mean), Frac: cfg.serverFrac()})
				}
			}
		}
	}
	if cfg.DCOutageRatePerDay > 0 {
		src, p := base.Derive("dc"), perSlot(cfg.DCOutageRatePerDay)
		for sl := 0; sl < slots; sl++ {
			for d := 0; d < n; d++ {
				if src.Float64() < p {
					s.apply(Outage{Kind: KindDC, DC: d, Start: timeutil.Slot(sl),
						Slots: duration(src, mean)})
				}
			}
		}
	}
	if cfg.LinkFailRatePerDay > 0 {
		src, p := base.Derive("link"), perSlot(cfg.LinkFailRatePerDay)
		for sl := 0; sl < slots; sl++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i == j {
						continue
					}
					if src.Float64() < p {
						s.apply(Outage{Kind: KindLink, DC: i, To: j, Start: timeutil.Slot(sl),
							Slots: duration(src, mean), Frac: cfg.linkFactor()})
					}
				}
			}
		}
	}
	if cfg.PVDropRatePerDay > 0 {
		src, p := base.Derive("pv"), perSlot(cfg.PVDropRatePerDay)
		for sl := 0; sl < slots; sl++ {
			for d := 0; d < n; d++ {
				if src.Float64() < p {
					s.apply(Outage{Kind: KindPV, DC: d, Start: timeutil.Slot(sl),
						Slots: duration(src, mean), Frac: cfg.pvFrac()})
				}
			}
		}
	}
	return s
}

// duration draws a repair time of at least one slot with the given
// mean: 1 + Exp(mean-1) when the mean exceeds a slot.
func duration(src *rng.Source, mean float64) int {
	if mean <= 1 {
		return 1
	}
	return 1 + int(src.Exp(mean-1))
}

// apply overlays one outage window onto the tables. Overlapping
// windows compose conservatively: capacity and PV fractions multiply,
// link factors take the minimum, DC-down flags OR.
func (s *Schedule) apply(o Outage) {
	lo := int(o.Start)
	hi := lo + o.Slots
	if lo < 0 {
		lo = 0
	}
	if hi > s.slots {
		hi = s.slots
	}
	for sl := lo; sl < hi; sl++ {
		r := sl * s.n
		switch o.Kind {
		case KindServer:
			s.capFrac[r+o.DC] *= 1 - o.Frac
		case KindDC:
			s.dcDown[r+o.DC] = true
			s.capFrac[r+o.DC] = 0
		case KindPV:
			s.pvFrac[r+o.DC] *= 1 - o.Frac
		case KindLink:
			if s.link[sl] == nil {
				m := make([][]float64, s.n)
				for i := range m {
					m[i] = make([]float64, s.n)
					for j := range m[i] {
						m[i][j] = 1
					}
				}
				s.link[sl] = m
			}
			f := o.Frac
			if f < linkFloor {
				f = linkFloor
			}
			if f < s.link[sl][o.DC][o.To] {
				s.link[sl][o.DC][o.To] = f
			}
		}
	}
}
