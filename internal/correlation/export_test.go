package correlation

import "geovmp/internal/units"

// IDAdjacency is Adjacency with every id bound to itself, over 0..the
// largest endpoint, so no pair is dropped: the whole-range build the
// tests hold the adjacency and Partners' one-id lists to.
func (m *DataMatrix) IDAdjacency(a *Adjacency) {
	n := 0
	m.Each(func(from, to int, _ units.DataSize) { n = max(n, from+1, to+1) })
	ids := make([]int, n)
	for id := range ids {
		ids[id] = id
	}
	m.Adjacency(a, ids)
}

// Len returns the number of registered profiles.
func (ps *ProfileSet) Len() int { return len(ps.ids) }

// Len returns the number of non-zero directed pairs.
func (m *DataMatrix) Len() int { return m.pairs }
