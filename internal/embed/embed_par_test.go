package embed

import (
	"reflect"
	"slices"
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
	ids  []int     // bound point order
	rows [][]int32 // bound attraction rows
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

func (f splitHashField) Repulsion(onto, by int) float64 { return f.rep(onto, by) }

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

func (f *splitHashField) Bind(ids []int) {
	f.ids = ids
	at := make(map[int]int32, len(ids))
	for i, id := range ids {
		at[id] = int32(i)
	}
	f.rows = make([][]int32, len(ids))
	for i, id := range ids {
		for _, p := range f.AttractionPeers(id) {
			if j, ok := at[p]; ok {
				f.rows[i] = append(f.rows[i], j)
			}
		}
	}
}

func (f *splitHashField) RepulsionRow(i int, js []int32, dst []float64) {
	for k, j := range js {
		dst[k] = f.rep(f.ids[i], f.ids[j])
	}
}

func (f *splitHashField) AttractionRow(i int) ([]int32, []float64, []float64) {
	fa := make([]float64, len(f.rows[i]))
	for k := range fa {
		fa[k] = -0.5
	}
	return f.rows[i], fa, fa
}

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
		{"exact", 96, Config{Seed: 3, MaxIters: 20}},
		{"sampled", 160, Config{Seed: 3, MaxIters: 20, ExactThreshold: 32, SampleK: 24}},
		{"sampled-fast", 160, Config{Seed: 3, MaxIters: 20, ExactThreshold: 32, SampleK: 24, FastMath: true}},
	} {
		for _, w := range []*par.Budget{nil, par.NewBudget(3)} {
			ids := make([]int, tc.n)
			for i := range ids {
				ids[i] = tc.n - i // not the identity, so index != id
			}
			field := &bindCheckField{splitHashField: splitHashField{seed: 99, n: tc.n + 1}, t: t}
			cfg := tc.cfg
			cfg.Workers = w
			Run(ids, nil, nil, field, cfg)
			if b := field.binds.Load(); b != 1 {
				t.Errorf("%s: Run bound %d times, want 1", tc.name, b)
			}
			if !reflect.DeepEqual(field.ids, ids) {
				t.Errorf("%s: Run bound a different point order than its ids", tc.name)
			}
		}
	}
}

// TestSplitFieldFastPathEquivalence proves the index-addressed attraction
// pairs change nothing: against the id-addressed oracle (the field's peers
// through an id map, a pair set, and two Force calls per pair) every pair,
// its order and both directed forces match bit for bit, and each point's
// attraction row holds exactly its oracle peers — at any worker count and
// in any point order.
func TestSplitFieldFastPathEquivalence(t *testing.T) {
	const n = 160
	ident, rev := make([]int, n), make([]int, n)
	for i := range ident {
		ident[i], rev[i] = i, n-i
	}
	for _, ids := range [][]int{ident, rev} {
		field := &splitHashField{seed: 99, n: n + 1}
		want, attracted := OracleAttraction(ids, field, field.AttractionPeers)
		field.Bind(ids)
		for _, w := range []*par.Budget{nil, par.NewBudget(3)} {
			if got := buildAttraction(n, field, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("attraction pairs differ from the oracle (%d vs %d pairs)", len(got), len(want))
			}
		}
		for i := range ids {
			js, _, _ := field.AttractionRow(i)
			if len(js) != len(attracted[i]) {
				t.Fatalf("point %d: row %v, oracle %v", i, js, attracted[i])
			}
			for _, j := range attracted[i] {
				if !slices.Contains(js, j) {
					t.Fatalf("point %d: row %v lacks oracle peer %d", i, js, j)
				}
			}
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
		{"exact", 96, Config{Seed: 3, MaxIters: 20}},
		{"sampled", 160, Config{Seed: 3, MaxIters: 20, ExactThreshold: 32, SampleK: 24}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ids := make([]int, tc.n)
			for i := range ids {
				ids[i] = i
			}
			run := func(w *par.Budget) Result {
				cfg := tc.cfg
				cfg.Workers = w
				return Run(ids, nil, nil, &splitHashField{seed: 99, n: tc.n}, cfg)
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
