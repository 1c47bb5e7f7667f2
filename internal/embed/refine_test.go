package embed

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"geovmp/internal/rng"
)

// pairField is a scripted Field: forces come from a map, and peers lists
// the attraction peers a caller passes RefineOne.
type pairField struct {
	force map[[2]int]float64
	peers map[int][]int
}

func (f *pairField) Force(onto, by int) float64 { return f.force[[2]int{onto, by}] }

// Repulsion is Force: RefineOne asks it only of non-peers, which the
// scripted fields give no data.
func (f *pairField) Repulsion(onto, by int) float64 { return f.Force(onto, by) }

func TestRefineOneDeterministic(t *testing.T) {
	f := &pairField{
		force: map[[2]int]float64{{5, 1}: -0.8, {5, 2}: 0.6, {5, 3}: 0.3},
		peers: map[int][]int{5: {1}},
	}
	pos := []Point{
		1: {X: 2, Y: 0},
		2: {X: -1, Y: 1},
		3: {X: 0, Y: -2},
		5: {X: 0, Y: 0},
	}
	cfg := Config{Seed: 11, MaxIters: 6}
	a := RefineOne(5, pos[5], f.peers[5], []int{1, 2, 3}, pos, f, cfg)
	b := RefineOne(5, pos[5], f.peers[5], []int{1, 2, 3}, pos, f, cfg)
	if a != b {
		t.Fatalf("not deterministic: %+v vs %+v", a, b)
	}
	if a == (Point{X: 0, Y: 0}) {
		t.Fatal("refinement did not move the point")
	}
	// Only id's position is refined; the rest of the layout is frozen.
	if pos[1] != (Point{X: 2, Y: 0}) || pos[5] != (Point{}) {
		t.Fatal("RefineOne mutated the layout")
	}
}

func TestRefineOneAttractsTowardPeer(t *testing.T) {
	// One strongly attractive peer, no repulsion: the point must end up
	// closer to the peer than where it started.
	f := &pairField{
		force: map[[2]int]float64{{5, 1}: -1.0},
		peers: map[int][]int{5: {1}},
	}
	pos := []Point{1: {X: 6, Y: 0}, 5: {X: 0, Y: 0}}
	p := RefineOne(5, pos[5], f.peers[5], []int{1}, pos, f, Config{Seed: 3, MaxIters: 8})
	d0 := Dist(Point{X: 0, Y: 0}, pos[1])
	if d := Dist(p, pos[1]); d >= d0 {
		t.Fatalf("attraction failed: dist %v -> %v", d0, d)
	}
}

func TestRefineOneRepelsFromCoResident(t *testing.T) {
	// Pure repulsion from a nearby point: the refined position must gain
	// distance.
	f := &pairField{
		force: map[[2]int]float64{{5, 1}: 1.0},
		peers: map[int][]int{5: {1}},
	}
	pos := []Point{1: {X: 0.3, Y: 0}, 5: {X: 0, Y: 0}}
	p := RefineOne(5, pos[5], f.peers[5], []int{1}, pos, f, Config{Seed: 3, MaxIters: 4})
	if d := Dist(p, pos[1]); d <= 0.3 {
		t.Fatalf("repulsion failed: dist = %v", d)
	}
}

func TestRefineOneEdgeCases(t *testing.T) {
	f := &pairField{force: map[[2]int]float64{}, peers: map[int][]int{}}
	seed := Point{X: 1, Y: 2}
	cfg := Config{Seed: 9, MaxIters: 4}
	// No co-residents: nothing to refine against.
	if p := RefineOne(5, seed, f.peers[5], nil, nil, f, cfg); p != seed {
		t.Fatalf("solo point moved: %+v", p)
	}
	// A peer list naming id itself is skipped, and a coincident
	// co-resident still yields a finite move.
	f.force[[2]int{5, 1}] = 1
	pos := []Point{1: seed, 5: seed}
	p := RefineOne(5, seed, []int{5}, []int{1}, pos, f, cfg)
	if math.IsNaN(p.X) || math.IsNaN(p.Y) || p == seed {
		t.Fatalf("coincident refinement: %+v", p)
	}
}

// refineOneRef is RefineOne with every sample hashed from its four keys,
// the form before the per-iteration prefix fold.
func refineOneRef(id int, p Point, peers, others []int, pos []Point, field Field, cfg Config) Point {
	cfg.applyDefaults()
	n := len(others) + 1
	if n < 2 {
		return p
	}
	rw := repulsionWeight(n)
	scale := float64(n-1) / float64(cfg.SampleK) * rw
	for iter := 0; iter < cfg.MaxIters; iter++ {
		var fxv, fyv float64
		pull := func(q Point, f float64) {
			dx, dy := p.X-q.X, p.Y-q.Y
			d := math.Sqrt(dx*dx + dy*dy)
			if d < 1e-9 {
				ang := rng.Noise01(cfg.Seed, uint64(id), 0x1F1, uint64(iter)) * 2 * math.Pi
				dx, dy, d = math.Cos(ang), math.Sin(ang), 1
			}
			fxv += f * dx / d
			fyv += f * dy / d
		}
		for _, peer := range peers {
			if peer != id {
				pull(pos[peer], weighted(field.Force(id, peer), rw))
			}
		}
		for k := 0; k < cfg.SampleK; k++ {
			j := others[rng.Hash(cfg.Seed, uint64(id), uint64(iter), uint64(k))%uint64(len(others))]
			if j == id || slices.Contains(peers, j) {
				continue
			}
			if f := field.Repulsion(id, j); f > 0 {
				pull(pos[j], f*scale)
			}
		}
		p.X, p.Y = step(p.X, p.Y, fxv, fyv)
	}
	return p
}

// TestRefineOneMatchesHashedDraw holds the prefix-folded sample draw to the
// four-key hash, bit for bit, at the default SampleK and at sizes below and
// above the pre-mixed table.
func TestRefineOneMatchesHashedDraw(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(300)
		f := &pairField{force: map[[2]int]float64{}}
		pos := make([]Point, n)
		others := make([]int, 0, n)
		for i := range pos {
			pos[i] = Point{X: r.NormFloat64() * 3, Y: r.NormFloat64() * 3}
			if i > 0 {
				others = append(others, i)
				f.force[[2]int{0, i}] = r.Float64()*2 - 1
			}
		}
		peers := others[:r.Intn(min(len(others), 6))]
		cfg := Config{Seed: uint64(trial), MaxIters: 1 + r.Intn(6), SampleK: []int{0, 5, 130}[trial%3]}
		got := RefineOne(0, pos[0], peers, others, pos, f, cfg)
		want := refineOneRef(0, pos[0], peers, others, pos, f, cfg)
		if math.Float64bits(got.X) != math.Float64bits(want.X) || math.Float64bits(got.Y) != math.Float64bits(want.Y) {
			t.Fatalf("trial %d: RefineOne %+v, hashed draw %+v", trial, got, want)
		}
	}
}
