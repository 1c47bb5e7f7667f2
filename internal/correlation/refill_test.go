package correlation

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"geovmp/internal/units"
)

type bitCell struct {
	from, to int
	bits     uint64
}

// walk records the matrix's Each walk, volumes as bits.
func walk(m *DataMatrix) []bitCell {
	var out []bitCell
	m.Each(func(from, to int, vol units.DataSize) {
		out = append(out, bitCell{from, to, math.Float64bits(float64(vol))})
	})
	return out
}

// sameMatrix compares two matrices on every observable: the Each walk,
// Len and Mean, bit for bit.
func sameMatrix(t *testing.T, what string, got, want *DataMatrix) {
	t.Helper()
	if g, w := walk(got), walk(want); !slices.Equal(g, w) {
		t.Fatalf("%s: Each walk %v, want %v", what, g, w)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len %d, want %d", what, got.Len(), want.Len())
	}
	if g, w := math.Float64bits(float64(got.Mean())), math.Float64bits(float64(want.Mean())); g != w {
		t.Fatalf("%s: Mean %v, want %v", what, got.Mean(), want.Mean())
	}
}

// receivers returns every sender's receiver sequence.
func receivers(m *DataMatrix) map[int][]int {
	out := map[int][]int{}
	m.Each(func(from, to int, _ units.DataSize) { out[from] = append(out[from], to) })
	return out
}

// checkDiff holds d to the brute-force difference between the receiver
// sequences before and after a refill.
func checkDiff(t *testing.T, what string, before, after map[int][]int, d *RowDiff) {
	t.Helper()
	var senders, recv []int
	for _, rows := range []map[int][]int{before, after} {
		for from := range rows {
			if slices.Contains(senders, from) || slices.Equal(before[from], after[from]) {
				continue
			}
			senders = append(senders, from)
			for _, to := range after[from] {
				if !slices.Contains(before[from], to) {
					recv = append(recv, to)
				}
			}
			for _, to := range before[from] {
				if !slices.Contains(after[from], to) {
					recv = append(recv, to)
				}
			}
		}
	}
	gotS, gotR := slices.Sorted(slices.Values(d.Senders)), slices.Sorted(slices.Values(d.Receivers))
	slices.Sort(senders)
	slices.Sort(recv)
	if !slices.Equal(gotS, senders) {
		t.Fatalf("%s: senders %v, want %v", what, gotS, senders)
	}
	if !slices.Equal(gotR, recv) {
		t.Fatalf("%s: receivers %v, want %v", what, gotR, recv)
	}
}

// refillTwin drives a refilled matrix and one rebuilt from scratch (Reset
// and Add) through the same refills, adds and departures.
type refillTwin struct {
	m, ref *DataMatrix
	d      RowDiff
}

func (r *refillTwin) refill(t *testing.T, what string, pairs []bitCell) {
	t.Helper()
	before := receivers(r.m)
	at := func(k int) (int, int, units.DataSize) {
		p := pairs[k]
		return p.from, p.to, units.DataSize(math.Float64frombits(p.bits))
	}
	r.m.Refill(len(pairs), at, &r.d)
	r.ref.Reset()
	for k := range pairs {
		r.ref.Add(at(k))
	}
	sameMatrix(t, what, r.m, r.ref)
	checkDiff(t, what, before, receivers(r.m), &r.d)
}

var refillVols = []float64{1, 2, 3, 0.5, 7, 1e300, math.Inf(1), math.NaN(), 0, -1}

func runRefill(t *testing.T, next func() byte, rounds int) {
	const nIDs = 12
	r := &refillTwin{m: NewDataMatrix(), ref: NewDataMatrix()}
	var pairs []bitCell
	for round := 0; round < rounds; round++ {
		// The next refill repeats, drops, moves or adds some of the last
		// one's pairs.
		var next2 []bitCell
		for _, p := range pairs {
			switch next() % 8 {
			case 0: // dropped
			case 1:
				next2 = append(next2, p, p) // repeated
			case 2:
				next2 = append([]bitCell{p}, next2...) // moved to the front
			default:
				p.bits = math.Float64bits(refillVols[int(next())%len(refillVols)])
				next2 = append(next2, p)
			}
		}
		for n := int(next() % 6); n > 0; n-- {
			next2 = append(next2, bitCell{int(next()%nIDs) - 1, int(next() % nIDs), math.Float64bits(refillVols[int(next())%len(refillVols)])})
		}
		pairs = next2
		r.refill(t, fmt.Sprintf("round %d refill", round), pairs)
		// Between refills, the matrix is amended as the daemon amends it.
		for n := int(next() % 4); n > 0; n-- {
			a, b := int(next()%nIDs), int(next()%nIDs)
			if next()%2 == 0 {
				v := units.DataSize(1 + next()%4)
				r.m.Add(a, b, v)
				r.ref.Add(a, b, v)
			} else {
				partners := make([]int, nIDs)
				for i := range partners {
					partners[i] = i
				}
				r.m.RemoveVM(a, partners)
				r.ref.RemoveVM(a, partners)
			}
			sameMatrix(t, fmt.Sprintf("round %d amend", round), r.m, r.ref)
		}
	}
}

func TestRefillMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		runRefill(t, func() byte { return byte(rnd.Intn(256)) }, 40)
	}
}

func FuzzRefill(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2})
	f.Add([]byte{5, 0, 0, 0, 2, 2, 2, 1, 1, 1, 7, 7, 7, 3, 3, 3, 0, 9, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		next := func() byte {
			if i >= len(data) {
				return 0
			}
			i++
			return data[i-1]
		}
		runRefill(t, next, 1+len(data)/4)
	})
}

// TestPartnersMatchIDAdjacency holds Partners to IDAdjacency's rows, given
// each id's senders shuffled and repeated.
func TestPartnersMatchIDAdjacency(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	var a Adjacency
	for trial := 0; trial < 200; trial++ {
		n := 2 + rnd.Intn(30)
		m := NewDataMatrix()
		for k := rnd.Intn(4 * n); k > 0; k-- {
			m.Add(rnd.Intn(n), rnd.Intn(n), units.DataSize(1+rnd.Intn(5)))
		}
		m.IDAdjacency(&a)
		for id := 0; id < n+2; id++ {
			var cand []int
			m.Each(func(from, to int, _ units.DataSize) {
				if to == id {
					cand = append(cand, from, from)
				}
			})
			rnd.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
			got := m.Partners([]int{-7}, id, cand)
			var want []int
			if id < len(a.Off)-1 {
				lo, hi := a.Row(id)
				for _, p := range a.Peer[lo:hi] {
					want = append(want, int(p))
				}
			}
			if got[0] != -7 || !slices.Equal(got[1:], want) {
				t.Fatalf("trial %d id %d: Partners %v, IDAdjacency %v", trial, id, got[1:], want)
			}
		}
	}
}

// TestCloneIsIndependent holds a clone to its source on every observable,
// and each to its own state after the other is changed.
func TestCloneIsIndependent(t *testing.T) {
	rnd := rand.New(rand.NewSource(8))
	m := NewDataMatrix()
	for k := 0; k < 200; k++ {
		m.Add(rnd.Intn(40), rnd.Intn(40), units.DataSize(1+rnd.Intn(9)))
	}
	m.RemoveVM(3, []int{0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39})
	c := m.Clone()
	sameMatrix(t, "clone", c, m)
	keep := walk(m)
	var ref DataMatrix
	m.Each(ref.Add)

	for k := 0; k < 50; k++ {
		c.Add(rnd.Intn(50), rnd.Intn(50), 100)
	}
	c.RemoveVM(7, []int{1, 2, 8})
	if got := walk(m); !slices.Equal(got, keep) {
		t.Fatal("changing the clone changed the source")
	}
	sameMatrix(t, "source after the clone changed", m, m.Clone())

	c = m.Clone()
	keep = walk(c)
	var d RowDiff
	m.Refill(3, func(k int) (int, int, units.DataSize) { return k, k + 1, 5 }, &d)
	m.Add(1, 0, 9)
	if got := walk(c); !slices.Equal(got, keep) {
		t.Fatal("changing the source changed the clone")
	}
	sameMatrix(t, "clone after the source changed", c, &ref)
}
