package correlation

import (
	"slices"

	"geovmp/internal/units"
)

// Adjacency is a DataMatrix's data-correlation graph over a bound point
// order, in compressed sparse row form: point i's partners are
// Peer[Off[i]:Off[i+1]], each listed once whichever directions carry data,
// in the order DataMatrix.Each first reaches the pair (a pair's receiver
// row registers before its sender row). In[e] is the volume partner
// Peer[e] sends point i, Out[e] the volume point i sends it; either may be
// 0. Build one with DataMatrix.Adjacency; it is read-only afterwards and
// safe for concurrent readers.
type Adjacency struct {
	Off     []int32
	Peer    []int32
	In, Out []units.DataSize

	// Scratch: id -> point index (-1 unbound), the bound pairs in Each
	// order, and each row's fill cursor.
	at    []int32
	pairs []boundPair
	fill  []int32
}

type boundPair struct {
	from, to int32
	vol      units.DataSize
}

// Row returns point i's edge range [lo, hi) into Peer, In and Out.
func (a *Adjacency) Row(i int) (lo, hi int) { return int(a.Off[i]), int(a.Off[i+1]) }

// Adjacency builds the matrix's adjacency in a, reusing a's arrays, with one
// Each walk. Point i is ids[i]; pairs with an endpoint outside ids are
// dropped. ids must be distinct and non-negative.
func (m *DataMatrix) Adjacency(a *Adjacency, ids []int) {
	n := len(ids)
	for i, id := range ids {
		for len(a.at) <= id {
			a.at = append(a.at, -1)
		}
		a.at[id] = int32(i)
	}
	// One walk records the bound pairs and counts each point's entries, an
	// upper bound on its partner count.
	a.Off = slices.Grow(a.Off[:0], n+1)[:n+1]
	clear(a.Off)
	a.pairs = a.pairs[:0]
	m.Each(func(from, to int, vol units.DataSize) {
		if from < len(a.at) && to < len(a.at) && a.at[from] >= 0 && a.at[to] >= 0 {
			p := boundPair{a.at[from], a.at[to], vol}
			a.pairs = append(a.pairs, p)
			a.Off[p.from+1]++
			a.Off[p.to+1]++
		}
	})
	for i := 0; i < n; i++ {
		a.Off[i+1] += a.Off[i]
	}
	e := int(a.Off[n])
	a.Peer = slices.Grow(a.Peer[:0], e)[:e]
	a.In = slices.Grow(a.In[:0], e)[:e]
	a.Out = slices.Grow(a.Out[:0], e)[:e]
	a.fill = append(a.fill[:0], a.Off[:n]...)
	// Each partner is found by scanning the row filled so far (degrees are
	// bounded by the service graph), so no pair set is needed.
	slot := func(i, j int32) int {
		for k := a.Off[i]; k < a.fill[i]; k++ {
			if a.Peer[k] == j {
				return int(k)
			}
		}
		k := a.fill[i]
		a.fill[i]++
		a.Peer[k], a.In[k], a.Out[k] = j, 0, 0
		return int(k)
	}
	for _, p := range a.pairs {
		a.In[slot(p.to, p.from)] = p.vol
		a.Out[slot(p.from, p.to)] = p.vol
	}
	// Close the slack the upper bounds left between rows.
	w := int32(0)
	for i := 0; i < n; i++ {
		lo, hi := a.Off[i], a.fill[i]
		a.Off[i] = w
		copy(a.Peer[w:], a.Peer[lo:hi])
		copy(a.In[w:], a.In[lo:hi])
		copy(a.Out[w:], a.Out[lo:hi])
		w += hi - lo
	}
	a.Off[n] = w
	a.Peer, a.In, a.Out = a.Peer[:w], a.In[:w], a.Out[:w]
	for _, id := range ids {
		a.at[id] = -1
	}
}
