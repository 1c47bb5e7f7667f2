package embed_test

import (
	"fmt"
	"reflect"
	"testing"

	"geovmp/internal/config"
	"geovmp/internal/core"
	"geovmp/internal/correlation"
	"geovmp/internal/embed"
	"geovmp/internal/par"
	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

// oraclePeers is the controller's peer derivation as it was before the
// adjacency was index-addressed (see the correlation package's copy).
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

// TestAttractionMatchesOracle is the controller-field property behind the
// index-addressed sampled mode, over real slots of three presets x two
// seeds: the attraction pairs built from the bound adjacency match the
// pre-index oracle (partners from the oracle peer lists, two Force calls
// per pair on the controller's field) field for field and bit
// for bit at any worker count, and every adjacency edge satisfies the
// SplitField contract against Force in both directions.
func TestAttractionMatchesOracle(t *testing.T) {
	for _, preset := range []string{"paper-geo3dc", "geo5dc-dynamic", "geo5dc-faulty"} {
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
				pairs := 0
				for sl := timeutil.Slot(0); sl < 24; sl += 5 {
					obs := max(sl-1, 0)
					ids := w.ActiveVMs(sl)
					ps := correlation.NewProfileSet(12)
					for _, id := range ids {
						ps.Add(id, w.SlotProfile(id, obs, 12))
					}
					dm := correlation.NewDataMatrix()
					for _, e := range w.PlannedVolumes(obs, sl) {
						dm.Add(e.From, e.To, e.Vol)
					}
					f := core.NewField(0.9, ps, dm, dm.Mean())
					peers := oraclePeers(dm)
					want, _ := embed.OracleAttraction(ids, f, func(id int) []int { return peers[id] })
					f.Bind(ids)
					for _, workers := range []*par.Budget{nil, par.NewBudget(3)} {
						if got := embed.BuildAttraction(len(ids), f, workers); !reflect.DeepEqual(got, want) {
							t.Fatalf("slot %d: %d attraction pairs differ from the oracle's %d", sl, len(got), len(want))
						}
					}
					pairs += len(want)
					for i := range ids {
						js, on, by := f.AttractionRow(i)
						rep := make([]float64, len(js))
						f.RepulsionRow(i, js, rep)
						for k, j := range js {
							if rep[k]+on[k] != f.Force(ids[i], ids[j]) || rep[k]+by[k] != f.Force(ids[j], ids[i]) {
								t.Fatalf("slot %d: edge %d-%d breaks Force == repulsion + attraction", sl, ids[i], ids[j])
							}
						}
					}
				}
				if pairs == 0 {
					t.Fatal("degenerate run: no attraction pairs")
				}
			})
		}
	}
}
