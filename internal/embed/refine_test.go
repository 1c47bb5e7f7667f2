package embed

import (
	"math"
	"testing"
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
