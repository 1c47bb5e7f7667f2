package storage

import (
	"math"
	"reflect"
	"testing"
)

// TestOverhead checks each compiled layout's storage blow-up: a group
// stores shards/needK bytes per logical byte (R for replication, (k+m)/k
// for erasure).
func TestOverhead(t *testing.T) {
	cases := []struct {
		cfg  Config
		want float64
	}{
		{Config{Scheme: SchemeReplicated}, 2},
		{Config{Scheme: SchemeReplicated, Replicas: 3}, 3},
		{Config{Scheme: SchemeErasure}, 2},
		{Config{Scheme: SchemeErasure, K: 4, M: 2}, 1.5},
	}
	for _, tc := range cases {
		m := NewModel(tc.cfg, 5)
		if got := float64(m.shards) / float64(m.needK); got != tc.want {
			t.Errorf("%+v overhead = %v, want %v", tc.cfg, got, tc.want)
		}
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
		{"replicated default", Config{Scheme: SchemeReplicated}, true},
		{"erasure default", Config{Scheme: SchemeErasure}, true},
		{"single replica", Config{Scheme: SchemeReplicated, Replicas: 1}, false},
		{"negative replicas", Config{Scheme: SchemeReplicated, Replicas: -2}, false},
		{"replicas exceed fleet", Config{Scheme: SchemeReplicated, Replicas: 6}, false},
		{"negative k", Config{Scheme: SchemeErasure, K: -1, M: 2}, false},
		{"negative m", Config{Scheme: SchemeErasure, K: 2, M: -1}, false},
		{"stripe exceeds fleet", Config{Scheme: SchemeErasure, K: 3, M: 3}, false},
		{"nan volume", Config{Scheme: SchemeReplicated, VolumeGBPerVM: nan}, false},
		{"inf volume", Config{Scheme: SchemeReplicated, VolumeGBPerVM: math.Inf(1)}, false},
		{"negative volume", Config{Scheme: SchemeReplicated, VolumeGBPerVM: -1}, false},
		{"negative group size", Config{Scheme: SchemeReplicated, GroupSize: -1}, false},
		{"negative repair slots", Config{Scheme: SchemeReplicated, RepairSlots: -1}, false},
		{"unknown scheme", Config{Scheme: Scheme(9)}, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate(5)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

func TestNilModel(t *testing.T) {
	if m := NewModel(Config{}, 4); m != nil {
		t.Fatalf("disabled config compiled to a model")
	}
	var m *Model
	st := m.Assess([]int{1, 2}, []bool{true}, nil, nil)
	if st != (SlotStats{}) {
		t.Fatalf("nil model Assess = %+v, want zero", st)
	}
}

type flow struct {
	from, to int
	gb       float64
}

func collect(dst *[]flow) func(int, int, float64) {
	return func(from, to int, gb float64) {
		*dst = append(*dst, flow{from, to, gb})
	}
}

// TestReplicatedLossAndRepair pins the R=2 math on one group over 4 DCs:
// shards of group 0 sit on DC0 and DC1 (ring placement). With DC0 down
// and half of DC1's servers lost, the loss probability is exactly 0.5,
// and the single rebuild reads the surviving copy from DC1 toward DC2
// (first ring DC past the stripe) spread over 2 repair slots.
func TestReplicatedLossAndRepair(t *testing.T) {
	m := NewModel(Config{Scheme: SchemeReplicated, Replicas: 2}, 4)
	ids := []int{0, 1, 2, 3} // one group (default GroupSize 4)
	down := []bool{true, false, false, false}
	capFrac := []float64{0, 0.5, 1, 1}

	var flows []flow
	st := m.Assess(ids, down, capFrac, collect(&flows))
	if st.Groups != 1 {
		t.Fatalf("Groups = %d, want 1", st.Groups)
	}
	if math.Abs(st.LossProb-0.5) > 1e-12 {
		t.Errorf("LossProb = %v, want 0.5", st.LossProb)
	}
	// groupGB = 4 VMs × 8 GB = 32; needK = 1 so shardGB = 32; spread
	// over the default 2 repair slots → one 16 GB flow DC1→DC2.
	want := []flow{{1, 2, 16}}
	if !reflect.DeepEqual(flows, want) {
		t.Errorf("repair flows = %v, want %v", flows, want)
	}
	if st.RepairGB != 16 {
		t.Errorf("RepairGB = %v, want 16", st.RepairGB)
	}
}

// TestErasureRepair pins RS(2,1) over 4 DCs: the stripe of group 0 sits
// on DC0..DC2, rebuilding DC0's shard needs K=2 reads from DC1 and DC2
// toward the substitute DC3.
func TestErasureRepair(t *testing.T) {
	m := NewModel(Config{Scheme: SchemeErasure, K: 2, M: 1}, 4)
	ids := []int{0, 1, 2, 3}
	down := []bool{true, false, false, false}

	var flows []flow
	st := m.Assess(ids, down, nil, collect(&flows))
	// One shard lost of a tol=1 stripe and healthy survivors: no loss.
	if st.LossProb != 0 {
		t.Errorf("LossProb = %v, want 0", st.LossProb)
	}
	// shardGB = 32/2 = 16, per-slot 8, two reads.
	want := []flow{{1, 3, 8}, {2, 3, 8}}
	if !reflect.DeepEqual(flows, want) {
		t.Errorf("repair flows = %v, want %v", flows, want)
	}
	if st.RepairGB != 16 {
		t.Errorf("RepairGB = %v, want 16", st.RepairGB)
	}
}

// TestErasureBeatsReplicationAtEqualOverhead pins the analytic claim the
// acceptance test observes end-to-end: at 2.0× overhead and independent
// per-DC unavailability p < 1/3, RS(2,2) loses data less often than R=2
// (4p³-3p⁴ < p²).
func TestErasureBeatsReplicationAtEqualOverhead(t *testing.T) {
	rep := NewModel(Config{Scheme: SchemeReplicated, Replicas: 2}, 4)
	era := NewModel(Config{Scheme: SchemeErasure, K: 2, M: 2}, 4)
	ids := []int{0, 1, 2, 3}
	p := 0.2
	capFrac := []float64{1 - p, 1 - p, 1 - p, 1 - p}
	down := []bool{false, false, false, false}

	rl := rep.Assess(ids, down, capFrac, nil).LossProb
	el := era.Assess(ids, down, capFrac, nil).LossProb
	if math.Abs(rl-p*p) > 1e-12 {
		t.Errorf("replicated loss = %v, want p² = %v", rl, p*p)
	}
	wantEra := 4*math.Pow(p, 3)*(1-p) + math.Pow(p, 4)
	if math.Abs(el-wantEra) > 1e-12 {
		t.Errorf("erasure loss = %v, want %v", el, wantEra)
	}
	if el >= rl {
		t.Errorf("erasure loss %v not below replication %v at p=%v", el, rl, p)
	}
}

func TestNoRiskEarlyOut(t *testing.T) {
	m := NewModel(Config{Scheme: SchemeReplicated, Replicas: 2}, 4)
	var flows []flow
	st := m.Assess([]int{0, 1, 2, 3}, []bool{false, false, false, false},
		[]float64{1, 1, 1, 1}, collect(&flows))
	if st.LossProb != 0 || st.RepairGB != 0 || len(flows) != 0 {
		t.Errorf("healthy slot produced loss %v repair %v flows %v",
			st.LossProb, st.RepairGB, flows)
	}
}

func TestSubstituteExhausted(t *testing.T) {
	// RS(2,2) over exactly 4 DCs: every DC hosts a shard, so when one is
	// down there is no spare destination and repair is skipped — the
	// loss term carries the damage instead.
	m := NewModel(Config{Scheme: SchemeErasure, K: 2, M: 2}, 4)
	var flows []flow
	st := m.Assess([]int{0, 1, 2, 3}, []bool{true, false, false, false}, nil, collect(&flows))
	if len(flows) != 0 || st.RepairGB != 0 {
		t.Errorf("repair emitted with no substitute available: %v (%v GB)", flows, st.RepairGB)
	}
}

func TestAssessOrderInvariance(t *testing.T) {
	m := NewModel(Config{Scheme: SchemeErasure, K: 2, M: 1, GroupSize: 2}, 5)
	down := []bool{true, false, false, false, false}
	capFrac := []float64{0, 0.9, 1, 0.8, 1}
	a := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b := []int{7, 2, 5, 0, 6, 3, 1, 4}

	var fa, fb []flow
	sa := m.Assess(a, down, capFrac, collect(&fa))
	sb := m.Assess(b, down, capFrac, collect(&fb))
	if sa != sb {
		t.Errorf("stats differ under id permutation: %+v vs %+v", sa, sb)
	}
	if !reflect.DeepEqual(fa, fb) {
		t.Errorf("repair flows differ under id permutation: %v vs %v", fa, fb)
	}
}
