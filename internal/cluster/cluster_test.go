package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"geovmp/internal/embed"
	"geovmp/internal/rng"
)

// kmeansIters is the iteration cap internal/core passes; tests that do
// not probe the cap itself run at it.
const kmeansIters = 12

func twoBlobs() []Item {
	var items []Item
	id := 0
	for i := 0; i < 10; i++ {
		items = append(items, Item{ID: id, Pos: embed.Point{X: -10 + float64(i%3), Y: float64(i % 4)}, Load: 1})
		id++
	}
	for i := 0; i < 10; i++ {
		items = append(items, Item{ID: id, Pos: embed.Point{X: 10 + float64(i%3), Y: float64(i % 4)}, Load: 1})
		id++
	}
	return items
}

func TestSeparatesObviousBlobs(t *testing.T) {
	items := twoBlobs()
	res := Run(items, Config{K: 2, Caps: []float64{100, 100}, MaxIters: kmeansIters})
	// All left-blob items must share a cluster, all right-blob items the other.
	left := res.Assign[0]
	for id := 0; id < 10; id++ {
		if res.Assign[id] != left {
			t.Fatalf("left item %d in cluster %d, want %d", id, res.Assign[id], left)
		}
	}
	right := res.Assign[10]
	if right == left {
		t.Fatal("blobs merged")
	}
	for id := 10; id < 20; id++ {
		if res.Assign[id] != right {
			t.Fatalf("right item %d in cluster %d, want %d", id, res.Assign[id], right)
		}
	}
}

func TestRespectsCapsWhenFeasible(t *testing.T) {
	// 20 unit loads, caps 12+12: no cluster may exceed its cap.
	items := twoBlobs()
	res := Run(items, Config{K: 2, Caps: []float64{12, 12}, MaxIters: kmeansIters})
	for c, l := range res.LoadPer {
		if l > 12+1e-9 {
			t.Fatalf("cluster %d load %v exceeds cap 12", c, l)
		}
	}
	total := res.LoadPer[0] + res.LoadPer[1]
	if math.Abs(total-20) > 1e-9 {
		t.Fatalf("load lost: total %v", total)
	}
}

func TestCapForcesSplitOfOneBlob(t *testing.T) {
	// A single blob with caps that cannot hold it all in one cluster.
	var items []Item
	for i := 0; i < 10; i++ {
		items = append(items, Item{ID: i, Pos: embed.Point{X: float64(i) * 0.01}, Load: 1})
	}
	res := Run(items, Config{K: 2, Caps: []float64{6, 6}, MaxIters: kmeansIters})
	if res.LoadPer[0] > 6+1e-9 || res.LoadPer[1] > 6+1e-9 {
		t.Fatalf("caps violated: %v", res.LoadPer)
	}
	if res.LoadPer[0] == 0 || res.LoadPer[1] == 0 {
		t.Fatal("blob not split despite caps")
	}
}

func TestOverflowGoesToLargestRemaining(t *testing.T) {
	// Total load 10 exceeds total cap 8: overflow must still assign all and
	// favor the larger cap.
	var items []Item
	for i := 0; i < 10; i++ {
		items = append(items, Item{ID: i, Pos: embed.Point{}, Load: 1})
	}
	res := Run(items, Config{K: 2, Caps: []float64{6, 2}, MaxIters: kmeansIters})
	if len(res.Assign) != 10 {
		t.Fatalf("assigned %d of 10", len(res.Assign))
	}
	if res.LoadPer[0] < res.LoadPer[1] {
		t.Fatalf("overflow ignored cap sizes: %v", res.LoadPer)
	}
}

func TestInitialCentroidsRespected(t *testing.T) {
	// With no iterations to converge (MaxIters 1) and symmetric points, the
	// initial centroids decide assignment.
	items := []Item{
		{ID: 0, Pos: embed.Point{X: -1}, Load: 1},
		{ID: 1, Pos: embed.Point{X: 1}, Load: 1},
	}
	res := Run(items, Config{
		K:        2,
		Caps:     []float64{10, 10},
		Init:     []embed.Point{{X: -5}, {X: 5}},
		MaxIters: 1,
	})
	if res.Assign[0] != 0 || res.Assign[1] != 1 {
		t.Fatalf("assignments %v ignore initial centroids", res.Assign)
	}
}

func TestDeterministic(t *testing.T) {
	items := twoBlobs()
	run := func() Result {
		return Run(items, Config{K: 2, Caps: []float64{12, 12}, MaxIters: kmeansIters})
	}
	a, b := run(), run()
	for id := range a.Assign {
		if a.Assign[id] != b.Assign[id] {
			t.Fatalf("assignment of %d diverged", id)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	res := Run(nil, Config{K: 3, Caps: []float64{1, 1, 1}, MaxIters: kmeansIters})
	if len(res.Assign) != 0 || len(res.Centroids) != 3 {
		t.Fatal("empty input mishandled")
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{K: 0},
		{K: 2, Caps: []float64{1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			Run(nil, cfg)
		}()
	}
}

func TestAllItemsAssignedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 5 + src.Intn(60)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				ID:   i,
				Pos:  embed.Point{X: src.Range(-20, 20), Y: src.Range(-20, 20)},
				Load: src.Range(0.1, 5),
			}
		}
		k := 2 + src.Intn(3)
		caps := make([]float64, k)
		for c := range caps {
			caps[c] = src.Range(5, 60)
		}
		res := Run(items, Config{K: k, Caps: caps, MaxIters: kmeansIters})
		if len(res.Assign) != n {
			return false
		}
		var totalIn, totalItems float64
		for _, l := range res.LoadPer {
			totalIn += l
		}
		for _, it := range items {
			totalItems += it.Load
			c := res.Assign[it.ID]
			if c < 0 || c >= k {
				return false
			}
		}
		return math.Abs(totalIn-totalItems) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCentroidsOf(t *testing.T) {
	items := []Item{
		{ID: 0, Pos: embed.Point{X: 0, Y: 0}},
		{ID: 1, Pos: embed.Point{X: 2, Y: 2}},
		{ID: 2, Pos: embed.Point{X: 10, Y: 0}},
	}
	assign := []int{0, 0, 1}
	cents := CentroidsOf(items, assign, 3, []embed.Point{{}, {}, {X: -7}})
	if cents[0] != (embed.Point{X: 1, Y: 1}) {
		t.Fatalf("centroid 0 = %v", cents[0])
	}
	if cents[1] != (embed.Point{X: 10, Y: 0}) {
		t.Fatalf("centroid 1 = %v", cents[1])
	}
	// Empty cluster keeps fallback.
	if cents[2] != (embed.Point{X: -7}) {
		t.Fatalf("centroid 2 = %v, want fallback", cents[2])
	}
}

func TestCentroidsOfIgnoresBadAssignments(t *testing.T) {
	items := []Item{{ID: 0, Pos: embed.Point{X: 5}}}
	cents := CentroidsOf(items, []int{99}, 2, nil)
	if cents[0] != (embed.Point{}) || cents[1] != (embed.Point{}) {
		t.Fatal("out-of-range assignment leaked into centroids")
	}
}

func TestDistToCentroid(t *testing.T) {
	res := Result{Centroids: []embed.Point{{X: 0}, {X: 10}}}
	if res.DistToCentroid(embed.Point{X: 3, Y: 4}, 0) != 5 {
		t.Fatal("distance wrong")
	}
}
