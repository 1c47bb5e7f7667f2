package embed

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"geovmp/internal/par"
	"geovmp/internal/rng"
)

// countingField is a deterministic, concurrency-safe SplitField stub that
// counts every repulsion partner evaluated through RepulsionRow — the
// sampled mode's force evaluations.
type countingField struct {
	partners atomic.Int64
	ids      []int // bound point order
}

func (c *countingField) pairForce(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	return 0.1 + 0.9*rng.Noise01(uint64(a*7919+b))
}

func (c *countingField) Force(onto, by int) float64 { return c.pairForce(onto, by) }
func (c *countingField) AttractionPeers(int) []int  { return nil }
func (c *countingField) Bind(ids []int)             { c.ids = ids }
func (c *countingField) RepulsionRow(i int, js []int32, dst []float64) {
	c.partners.Add(int64(len(js)))
	for k, j := range js {
		dst[k] = c.pairForce(c.ids[i], c.ids[j])
	}
}
func (c *countingField) EachAttraction(func(onto, by int, fa float64)) {}

func fastIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i + 100
	}
	return ids
}

// TestFrozenPeerContract pins what FastMath changes in the sampled mode:
// the iteration-0 draw of hashed peers and their forces is evaluated once
// per run (so the partner count does not depend on the iteration count),
// while the default mode redraws them every iteration. Either way the
// layout is bit-identical at any worker count.
func TestFrozenPeerContract(t *testing.T) {
	const n = 600 // past the default ExactThreshold of 512
	ids := fastIDs(n)
	run := func(fast bool, iters int, w *par.Budget) (Result, int64) {
		field := &countingField{}
		// StopFrac < 0 leaves MaxIters as the only halting rule, so the
		// iteration count is exactly iters.
		cfg := Config{Seed: 9, FastMath: fast, MaxIters: iters, SampleK: 16, StopFrac: -1, Workers: w}
		res := Run(ids, nil, field, cfg)
		if res.Iterations != iters {
			t.Fatalf("fast=%v: ran %d iterations, want %d", fast, res.Iterations, iters)
		}
		return res, field.partners.Load()
	}

	_, frozen4 := run(true, 4, nil)
	_, frozen12 := run(true, 12, nil)
	if frozen4 == 0 || frozen4 != frozen12 {
		t.Fatalf("frozen peers evaluated %d partners at 4 iterations and %d at 12, want equal and nonzero", frozen4, frozen12)
	}
	_, drawn4 := run(false, 4, nil)
	_, drawn12 := run(false, 12, nil)
	if drawn12 <= drawn4 {
		t.Fatalf("redrawn peers evaluated %d partners at 4 iterations and %d at 12, want growth", drawn4, drawn12)
	}

	// The frozen table is the iteration-0 draw, so a one-iteration run
	// cannot tell the modes apart.
	drawn1, _ := run(false, 1, nil)
	frozen1, _ := run(true, 1, nil)
	if !reflect.DeepEqual(drawn1, frozen1) {
		t.Fatal("one-iteration frozen run differs from the redrawn run: the frozen peers are not the iteration-0 draw")
	}

	for _, fast := range []bool{false, true} {
		serial, _ := run(fast, 6, nil)
		parallel, _ := run(fast, 6, par.NewBudget(4))
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("fast=%v: Workers=NewBudget(4) diverged from the serial run", fast)
		}
	}
}

// TestSampledFastMatchesForceSemantics spot-checks that the frozen-peer
// fast mode still respects force directions: an all-repulsive field
// expands the cloud.
func TestSampledFastMatchesForceSemantics(t *testing.T) {
	const n = 520
	ids := fastIDs(n)
	cfg := Config{Seed: 2, FastMath: true, MaxIters: 8, SampleK: 24}
	res := Run(ids, nil, &countingField{}, cfg)
	var spread float64
	for _, p := range res.Pos {
		spread += math.Hypot(p.X, p.Y)
	}
	init := make(map[int]Point, n)
	for _, id := range ids {
		init[id] = InitialPosition(id, cfg.InitRadius, cfg.Seed)
	}
	var before float64
	for _, p := range init {
		before += math.Hypot(p.X, p.Y)
	}
	if spread <= before {
		t.Fatalf("all-repulsive fast layout contracted: mean radius %v -> %v", before/n, spread/n)
	}
}
