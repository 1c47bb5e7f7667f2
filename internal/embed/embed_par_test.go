package embed

import (
	"reflect"
	"sync/atomic"
	"testing"

	"geovmp/internal/par"
	"geovmp/internal/rng"
)

// splitHashField is a deterministic, concurrency-safe Field + SplitField:
// symmetric hashed repulsion on every pair plus fixed attraction between
// consecutive ids — the structure of the controller's correlation field,
// without the controller.
type splitHashField struct {
	seed uint64
	n    int
	ids  []int // bound point order
}

func (f splitHashField) rep(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	return 0.1 + 0.9*rng.Noise01(f.seed, uint64(a), uint64(b))
}

func (f splitHashField) att(onto, by int) float64 {
	if by-onto == 1 || onto-by == 1 {
		return -0.5
	}
	return 0
}

func (f splitHashField) Force(onto, by int) float64 {
	return f.att(onto, by) + f.rep(onto, by)
}

func (f splitHashField) AttractionPeers(id int) []int {
	var peers []int
	if id > 0 {
		peers = append(peers, id-1)
	}
	if id < f.n-1 {
		peers = append(peers, id+1)
	}
	return peers
}

func (f *splitHashField) Bind(ids []int) { f.ids = ids }

func (f *splitHashField) RepulsionRow(i int, js []int32, dst []float64) {
	for k, j := range js {
		dst[k] = f.rep(f.ids[i], f.ids[j])
	}
}

func (f *splitHashField) EachAttraction(fn func(onto, by int, fa float64)) {
	for i := 0; i+1 < f.n; i++ {
		fn(i, i+1, -0.5)
		fn(i+1, i, -0.5)
	}
}

// forceOnlyField hides the SplitField fast paths, forcing the generic
// Force-per-pair code.
type forceOnlyField struct{ f *splitHashField }

func (g forceOnlyField) Force(onto, by int) float64   { return g.f.Force(onto, by) }
func (g forceOnlyField) AttractionPeers(id int) []int { return g.f.AttractionPeers(id) }

// bindCheckField is a splitHashField that reports a contract violation
// when RepulsionRow runs before Bind, or after a second Bind in one run.
type bindCheckField struct {
	splitHashField
	t     *testing.T
	binds atomic.Int32
}

func (f *bindCheckField) Bind(ids []int) {
	if f.binds.Add(1) > 1 {
		f.t.Error("Bind called twice within one Run")
	}
	f.splitHashField.Bind(ids)
}

func (f *bindCheckField) RepulsionRow(i int, js []int32, dst []float64) {
	if b := f.binds.Load(); b != 1 {
		f.t.Errorf("RepulsionRow with %d Binds behind it, want exactly 1", b)
	}
	f.splitHashField.RepulsionRow(i, js, dst)
}

// TestBindOncePerRun checks the SplitField binding contract in every mode:
// Run binds its own ids, in order, exactly once and before the first
// RepulsionRow, at any worker count.
func TestBindOncePerRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		cfg  Config
	}{
		{"exact", 96, Config{Seed: 3}},
		{"sampled", 160, Config{Seed: 3, ExactThreshold: 32, SampleK: 24}},
		{"sampled-fast", 160, Config{Seed: 3, ExactThreshold: 32, SampleK: 24, FastMath: true}},
	} {
		for _, w := range []*par.Budget{nil, par.NewBudget(3)} {
			ids := make([]int, tc.n)
			for i := range ids {
				ids[i] = tc.n - i // not the identity, so index != id
			}
			field := &bindCheckField{splitHashField: splitHashField{seed: 99, n: tc.n + 1}, t: t}
			cfg := tc.cfg
			cfg.Workers = w
			Run(ids, nil, field, cfg)
			if b := field.binds.Load(); b != 1 {
				t.Errorf("%s: Run bound %d times, want 1", tc.name, b)
			}
			if !reflect.DeepEqual(field.ids, ids) {
				t.Errorf("%s: Run bound a different point order than its ids", tc.name)
			}
		}
	}
}

// TestSplitFieldFastPathEquivalence proves the sampled mode's batched
// repulsion-row fast path changes nothing: the same embedding run against
// the bare Force interface and against the SplitField implementation
// yields bit-identical positions and costs.
func TestSplitFieldFastPathEquivalence(t *testing.T) {
	const n = 160
	field := &splitHashField{seed: 99, n: n}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	cfg := Config{Seed: 5, ExactThreshold: 32, SampleK: 24}
	fast := Run(ids, nil, field, cfg)
	slow := Run(ids, nil, forceOnlyField{f: field}, cfg)
	if fast.Iterations != slow.Iterations {
		t.Fatalf("iterations %d != %d", fast.Iterations, slow.Iterations)
	}
	for _, id := range ids {
		if fast.Pos[id] != slow.Pos[id] {
			t.Fatalf("position of %d differs: %v != %v", id, fast.Pos[id], slow.Pos[id])
		}
	}
	for k := range slow.Cost {
		if fast.Cost[k] != slow.Cost[k] {
			t.Fatalf("cost[%d] differs: %v != %v", k, fast.Cost[k], slow.Cost[k])
		}
	}
}

// TestWorkersEquivalence is the embedding's determinism guarantee: with
// Workers lending extra goroutines to the dense cache build and the sampled
// repulsion pass, positions, iteration counts and the Eq. 7 cost trace are
// bit-identical to the serial run — in both the exact and the sampled mode.
func TestWorkersEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		cfg  Config
	}{
		{"exact", 96, Config{Seed: 3}},
		{"sampled", 160, Config{Seed: 3, ExactThreshold: 32, SampleK: 24}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ids := make([]int, tc.n)
			for i := range ids {
				ids[i] = i
			}
			run := func(w *par.Budget) Result {
				cfg := tc.cfg
				cfg.Workers = w
				return Run(ids, nil, &splitHashField{seed: 99, n: tc.n}, cfg)
			}
			serial := run(nil)
			for _, extra := range []int{1, 7} {
				parallel := run(par.NewBudget(extra))
				if serial.Iterations != parallel.Iterations {
					t.Fatalf("extra=%d: iterations %d != %d", extra, parallel.Iterations, serial.Iterations)
				}
				if len(serial.Cost) != len(parallel.Cost) {
					t.Fatalf("extra=%d: cost trace length differs", extra)
				}
				for k := range serial.Cost {
					if serial.Cost[k] != parallel.Cost[k] {
						t.Fatalf("extra=%d: cost[%d] %v != %v", extra, k, parallel.Cost[k], serial.Cost[k])
					}
				}
				for _, id := range ids {
					if serial.Pos[id] != parallel.Pos[id] {
						t.Fatalf("extra=%d: position of %d differs: %v != %v",
							extra, id, parallel.Pos[id], serial.Pos[id])
					}
				}
			}
		})
	}
}
