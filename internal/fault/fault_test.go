package fault

import (
	"math"
	"reflect"
	"testing"

	"geovmp/internal/timeutil"
)

func refConfig() Config {
	return Config{
		Outages: []Outage{
			{Kind: KindDC, DC: 1, Start: 2, Slots: 3},
			{Kind: KindServer, DC: 0, Start: 1, Slots: 4, Frac: 0.25},
			{Kind: KindLink, DC: 0, To: 2, Start: 3, Slots: 2, Frac: 0.05},
			{Kind: KindPV, DC: 2, Start: 0, Slots: 5, Frac: 1},
		},
		ServerFailRatePerDay: 1.5,
		DCOutageRatePerDay:   0.4,
		LinkFailRatePerDay:   0.8,
		PVDropRatePerDay:     1.0,
		MeanRepairSlots:      3,
	}
}

func TestCompileDeterminism(t *testing.T) {
	cfg := refConfig()
	a := Compile(cfg, 4, 48, 7)
	b := Compile(cfg, 4, 48, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same (config, seed) compiled to different schedules")
	}
	c := Compile(cfg, 4, 48, 8)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds compiled to identical stochastic schedules")
	}
	// Pinned windows are seed-independent.
	for _, sl := range []timeutil.Slot{2, 3, 4} {
		if !a.DCDown(sl)[1] || !c.DCDown(sl)[1] {
			t.Fatalf("pinned DC outage missing at slot %d", sl)
		}
	}
}

func TestCompileComposition(t *testing.T) {
	// Compile does not re-validate, so overlapping windows exercise the
	// composition rules directly: capacity and PV fractions multiply,
	// link factors take the min, DC-down wins over partial loss.
	cfg := Config{Outages: []Outage{
		{Kind: KindServer, DC: 0, Start: 0, Slots: 2, Frac: 0.5},
		{Kind: KindServer, DC: 0, Start: 1, Slots: 2, Frac: 0.5},
		{Kind: KindDC, DC: 1, Start: 1, Slots: 1},
		{Kind: KindPV, DC: 0, Start: 0, Slots: 1, Frac: 0.3},
		{Kind: KindPV, DC: 0, Start: 0, Slots: 1, Frac: 0.5},
		{Kind: KindLink, DC: 0, To: 1, Start: 0, Slots: 1, Frac: 0.2},
		{Kind: KindLink, DC: 0, To: 1, Start: 0, Slots: 1, Frac: 0},
	}}
	s := Compile(cfg, 2, 4, 1)
	if got := s.CapFrac(0)[0]; got != 0.5 {
		t.Errorf("slot 0 capFrac = %v, want 0.5", got)
	}
	if got := s.CapFrac(1)[0]; got != 0.25 {
		t.Errorf("overlapped slot 1 capFrac = %v, want 0.25", got)
	}
	if got := s.CapFrac(1)[1]; got != 0 || !s.DCDown(1)[1] {
		t.Errorf("DC outage slot 1: capFrac %v down %v, want 0/true", got, s.DCDown(1)[1])
	}
	if got := s.PVFrac(0)[0]; math.Abs(got-0.35) > 1e-12 {
		t.Errorf("composed pvFrac = %v, want 0.35", got)
	}
	lf := s.LinkFactor(0)
	if lf == nil || lf[0][1] != linkFloor {
		t.Errorf("partitioned link factor = %v, want floor %v", lf, linkFloor)
	}
	if s.LinkFactor(1) != nil {
		t.Errorf("healthy slot 1 has a link matrix")
	}
	if got := s.CapFrac(2)[0]; got != 0.5 {
		t.Errorf("slot 2 capFrac = %v, want 0.5", got)
	}
	if cf, pv := s.CapFrac(3), s.PVFrac(3); cf[0] != 1 || cf[1] != 1 || pv[0] != 1 || s.DCDown(3)[1] {
		t.Errorf("healthy slot 3: capFrac %v pvFrac %v", cf, pv)
	}
}

func TestScheduleClamping(t *testing.T) {
	cfg := Config{Outages: []Outage{{Kind: KindDC, DC: 0, Start: 0, Slots: 1}}}
	s := Compile(cfg, 2, 2, 1)
	if !s.DCDown(-5)[0] {
		t.Errorf("negative slot did not clamp to the first row")
	}
	if s.DCDown(99)[0] {
		t.Errorf("past-horizon slot did not clamp to the last (healthy) row")
	}
	if s.LinkFactor(-1) != nil || s.LinkFactor(99) != nil {
		t.Errorf("out-of-range LinkFactor not nil")
	}
}

func TestDCTransitions(t *testing.T) {
	cfg := Config{Outages: []Outage{
		{Kind: KindDC, DC: 1, Start: 0, Slots: 2},
		{Kind: KindDC, DC: 0, Start: 3, Slots: 2},
	}}
	s := Compile(cfg, 2, 6, 1)
	want := []Transition{
		{Slot: 0, DC: 1, Down: true},
		{Slot: 2, DC: 1, Down: false},
		{Slot: 3, DC: 0, Down: true},
		{Slot: 5, DC: 0, Down: false},
	}
	if got := s.DCTransitions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("DCTransitions = %v, want %v", got, want)
	}
}

func TestValidate(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"reference", refConfig(), true},
		{"nan rate", Config{ServerFailRatePerDay: nan}, false},
		{"negative rate", Config{DCOutageRatePerDay: -1}, false},
		{"inf rate", Config{PVDropRatePerDay: math.Inf(1)}, false},
		{"frac over one", Config{ServerFailFrac: 1.5}, false},
		{"nan frac", Config{PVDropFrac: nan}, false},
		{"negative frac", Config{LinkDegradeFactor: -0.1}, false},
		{"nan repair", Config{MeanRepairSlots: nan}, false},
		{"negative repair", Config{MeanRepairSlots: -2}, false},
		{"bad kind", Config{Outages: []Outage{{Kind: 0, DC: 0, Start: 0, Slots: 1}}}, false},
		{"dc out of range", Config{Outages: []Outage{{Kind: KindDC, DC: 5, Start: 0, Slots: 1}}}, false},
		{"negative dc", Config{Outages: []Outage{{Kind: KindDC, DC: -1, Start: 0, Slots: 1}}}, false},
		{"link to out of range", Config{Outages: []Outage{{Kind: KindLink, DC: 0, To: 9, Start: 0, Slots: 1}}}, false},
		{"link self loop", Config{Outages: []Outage{{Kind: KindLink, DC: 1, To: 1, Start: 0, Slots: 1, Frac: 0.5}}}, false},
		{"negative start", Config{Outages: []Outage{{Kind: KindDC, DC: 0, Start: -1, Slots: 1}}}, false},
		{"zero duration", Config{Outages: []Outage{{Kind: KindDC, DC: 0, Start: 0, Slots: 0}}}, false},
		{"server frac zero", Config{Outages: []Outage{{Kind: KindServer, DC: 0, Start: 0, Slots: 1}}}, false},
		{"server frac nan", Config{Outages: []Outage{{Kind: KindServer, DC: 0, Start: 0, Slots: 1, Frac: nan}}}, false},
		{"link frac one", Config{Outages: []Outage{{Kind: KindLink, DC: 0, To: 1, Start: 0, Slots: 1, Frac: 1}}}, false},
		{"overlap same target", Config{Outages: []Outage{
			{Kind: KindDC, DC: 0, Start: 0, Slots: 3},
			{Kind: KindDC, DC: 0, Start: 2, Slots: 2},
		}}, false},
		{"adjacent same target", Config{Outages: []Outage{
			{Kind: KindDC, DC: 0, Start: 0, Slots: 2},
			{Kind: KindDC, DC: 0, Start: 2, Slots: 2},
		}}, true},
		{"overlap distinct targets", Config{Outages: []Outage{
			{Kind: KindDC, DC: 0, Start: 0, Slots: 3},
			{Kind: KindDC, DC: 1, Start: 1, Slots: 3},
			{Kind: KindServer, DC: 0, Start: 0, Slots: 3, Frac: 0.5},
		}}, true},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate(3)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Errorf("zero config reports enabled")
	}
	if !(Config{PVDropRatePerDay: 0.1}).Enabled() {
		t.Errorf("stochastic-only config reports disabled")
	}
	if !(Config{Outages: []Outage{{Kind: KindDC, DC: 0, Start: 0, Slots: 1}}}).Enabled() {
		t.Errorf("outage-only config reports disabled")
	}
}
