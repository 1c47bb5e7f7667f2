package correlation_test

import (
	"fmt"
	"slices"
	"testing"

	"geovmp/internal/config"
	"geovmp/internal/correlation"
	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

// oraclePeers is the controller's peer derivation as it was before the
// adjacency was index-addressed, kept as the test oracle: one Each walk,
// a directed (owner, peer) set, and each volume from->to registering from
// in to's list and then to in from's list, once each.
func oraclePeers(dm *correlation.DataMatrix) map[int][]int {
	peers := make(map[int][]int)
	seen := make(map[[2]int]bool)
	dm.Each(func(from, to int, _ units.DataSize) {
		if !seen[[2]int{to, from}] {
			peers[to] = append(peers[to], from)
			seen[[2]int{to, from}] = true
		}
		if !seen[[2]int{from, to}] {
			peers[from] = append(peers[from], to)
			seen[[2]int{from, to}] = true
		}
	})
	return peers
}

// checkAdjacency compares a's rows field for field with the oracle: point
// i's partners are the oracle's peers of ids[i] that are bound, in the
// oracle's order, and each edge carries the matrix's two directed volumes.
func checkAdjacency(t testing.TB, dm *correlation.DataMatrix, a *correlation.Adjacency, ids []int) {
	t.Helper()
	at := make(map[int]int, len(ids))
	for i, id := range ids {
		at[id] = i
	}
	oracle := oraclePeers(dm)
	if len(a.Off) != len(ids)+1 {
		t.Fatalf("%d offsets for %d points", len(a.Off), len(ids))
	}
	for i, id := range ids {
		var want []int32
		for _, p := range oracle[id] {
			if j, ok := at[p]; ok {
				want = append(want, int32(j))
			}
		}
		lo, hi := a.Row(i)
		if got := a.Peer[lo:hi]; !slices.Equal(got, want) {
			t.Fatalf("point %d (id %d): partners %v, oracle %v", i, id, got, want)
		}
		for e := lo; e < hi; e++ {
			p := ids[a.Peer[e]]
			if a.In[e] != dm.Vol(p, id) || a.Out[e] != dm.Vol(id, p) {
				t.Fatalf("edge %d-%d: volumes in %v out %v, matrix %v / %v",
					id, p, a.In[e], a.Out[e], dm.Vol(p, id), dm.Vol(id, p))
			}
		}
	}
}

// identity returns 0..n-1.
func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// checkIDAdjacency compares the identity-bound adjacency with the
// unfiltered oracle: no pair is dropped.
func checkIDAdjacency(t testing.TB, dm *correlation.DataMatrix, a *correlation.Adjacency) {
	t.Helper()
	dm.IDAdjacency(a)
	n := len(a.Off) - 1
	for id := range oraclePeers(dm) {
		if id >= n {
			t.Fatalf("id %d has peers but the identity binding stops at %d", id, n)
		}
	}
	checkAdjacency(t, dm, a, identity(n))
}

// TestAdjacencyMatchesOracle drives Adjacency with real slot volume
// matrices (two presets x two seeds, every slot of a day) bound to the
// slot's active VMs, and with the identity binding, reusing one Adjacency
// throughout.
func TestAdjacencyMatchesOracle(t *testing.T) {
	for _, preset := range []string{"paper-geo3dc", "geo5dc-dynamic"} {
		for _, seed := range []uint64{1, 2} {
			t.Run(fmt.Sprintf("%s-seed%d", preset, seed), func(t *testing.T) {
				spec, err := config.Preset(preset)
				if err != nil {
					t.Fatal(err)
				}
				spec.Scale = 0.02
				spec.Seed = seed
				sc, err := config.Build(spec)
				if err != nil {
					t.Fatal(err)
				}
				w := sc.Workload
				var a correlation.Adjacency
				edges := 0
				for sl := timeutil.Slot(0); sl < 24; sl++ {
					dm := correlation.NewDataMatrix()
					for _, e := range w.PlannedVolumes(max(sl-1, 0), sl) {
						dm.Add(e.From, e.To, e.Vol)
					}
					ids := w.ActiveVMs(sl)
					dm.Adjacency(&a, ids)
					checkAdjacency(t, dm, &a, ids)
					edges += len(a.Peer)
					checkIDAdjacency(t, dm, &a)
				}
				if edges == 0 {
					t.Fatal("degenerate run: no data pairs")
				}
			})
		}
	}
}

// FuzzAdjacency holds Adjacency to the oracle over arbitrary matrices:
// each 4-byte op adds volume in one or both directions (repeats
// accumulate), removes a VM, or re-adds after removal, over 24 ids of
// which a fuzzed subset — in a fuzzed order — is bound, so pairs leave the
// bound set, rows empty, and departed VMs leave holes.
func FuzzAdjacency(f *testing.F) {
	f.Add([]byte{0xff, 0x00, 0, 0, 1, 5, 0, 1, 0, 5, 1, 2, 3, 7})
	f.Add([]byte{0x0f, 0x81, 1, 3, 4, 9, 0, 3, 20, 2, 2, 3, 0, 0, 0, 4, 3, 1, 1})
	f.Add([]byte{0xaa, 0x55, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 2, 0, 0, 0, 3, 2, 1, 1, 0, 2, 2, 0})
	f.Add([]byte{0xff, 0x00, 0, 0, 3, 1, 0, 0, 1, 2, 1, 2, 0, 3}) // hub 0: row [3 1 2]
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		const nIDs = 24
		mask, rev := data[0], data[1]&1 == 1
		var ids []int
		for id := 0; id < nIDs; id++ {
			if mask&(1<<(id%8)) != 0 && (id/8 != 2 || data[1]&2 != 0) {
				ids = append(ids, id)
			}
		}
		if rev {
			for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
		dm := correlation.NewDataMatrix()
		for ops := data[2:]; len(ops) >= 4; ops = ops[4:] {
			a, b := int(ops[1])%nIDs, int(ops[2])%nIDs
			v := units.DataSize(ops[3] % 8)
			switch ops[0] % 4 {
			case 0:
				dm.Add(a, b, v)
			case 1:
				dm.Add(a, b, v)
				dm.Add(b, a, v+1)
			case 2:
				dm.RemoveVM(a, partnersOf(dm, a))
			case 3:
				dm.Add(b, a, v)
			}
		}
		var adj correlation.Adjacency
		dm.Adjacency(&adj, ids)
		checkAdjacency(t, dm, &adj, ids)
		checkIDAdjacency(t, dm, &adj)
		dm.Adjacency(&adj, ids) // rebuilt over reused scratch
		checkAdjacency(t, dm, &adj, ids)
	})
}

// partnersOf lists every VM that shares a pair with id, in either
// direction: the adjacency RemoveVM takes.
func partnersOf(dm *correlation.DataMatrix, id int) []int {
	var out []int
	dm.Each(func(from, to int, _ units.DataSize) {
		if from == id {
			out = append(out, to)
		} else if to == id {
			out = append(out, from)
		}
	})
	return out
}
