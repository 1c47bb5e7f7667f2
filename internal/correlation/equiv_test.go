package correlation_test

import (
	"fmt"
	"testing"

	"geovmp/internal/config"
	"geovmp/internal/correlation"
	"geovmp/internal/timeutil"
	"geovmp/internal/trace"
	"geovmp/internal/units"
)

// TestIncrementalEquivalence is the streaming daemon's foundational
// property: a ProfileSet/DataMatrix amended per arrival, departure and
// telemetry replace must be *bit-equal*, under every observable query, to
// containers compiled from scratch over the surviving VM set. It drives
// both containers with real workload churn (two presets x two seeds) and
// checks at periodic checkpoints.
func TestIncrementalEquivalence(t *testing.T) {
	for _, preset := range []string{"paper-geo3dc", "geo5dc-dynamic"} {
		for _, seed := range []uint64{1, 2} {
			t.Run(fmt.Sprintf("%s-seed%d", preset, seed), func(t *testing.T) {
				runEquiv(t, preset, seed)
			})
		}
	}
}

type volAdd struct {
	from, to int
	vol      units.DataSize
}

func runEquiv(t *testing.T, preset string, seed uint64) {
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
	const samples = 12
	arr, dep := trace.Diffs(w, 24)

	inc := correlation.NewProfileSet(samples)
	incDM := correlation.NewDataMatrix()

	// The from-scratch oracle's replay log: surviving ids in chronological
	// arrival order with their current profiles, and surviving volume adds
	// in original add order.
	var order []int
	profiles := map[int][]float64{}
	var volLog []volAdd
	live := map[int]bool{}
	pairSeen := map[[2]int]bool{}

	checked := 0
	for sl := timeutil.Slot(0); sl < timeutil.Slot(len(arr)); sl++ {
		obs := sl
		if sl > 0 {
			obs = sl - 1
		}
		for _, id := range dep[sl] {
			inc.Remove(id)
			incDM.RemoveVM(id)
			delete(live, id)
			delete(profiles, id)
			for k, v := range order {
				if v == id {
					order = append(order[:k], order[k+1:]...)
					break
				}
			}
			wlog := volLog[:0]
			for _, va := range volLog {
				if va.from == id || va.to == id {
					delete(pairSeen, [2]int{va.from, va.to})
					continue
				}
				wlog = append(wlog, va)
			}
			volLog = wlog
		}
		for _, id := range arr[sl] {
			p := w.SlotProfile(id, obs, samples)
			inc.Add(id, p)
			live[id] = true
			profiles[id] = p
			order = append(order, id)
		}
		// Telemetry-replace path: every third slot every live profile is
		// re-Added with fresh samples, exercising in-place arena overwrite,
		// freelist reuse and the inline order re-sort under built orders.
		if sl%3 == 2 {
			inc.EnsureOrders(nil)
			for _, id := range order {
				p := w.SlotProfile(id, sl, samples)
				inc.Add(id, p)
				profiles[id] = p
			}
		}
		for _, e := range w.PlannedVolumes(obs, sl) {
			if !live[e.From] || !live[e.To] {
				continue
			}
			key := [2]int{e.From, e.To}
			if pairSeen[key] {
				continue
			}
			pairSeen[key] = true
			incDM.Add(e.From, e.To, e.Vol)
			volLog = append(volLog, volAdd{e.From, e.To, e.Vol})
		}
		if sl%4 == 3 || sl == timeutil.Slot(len(arr))-1 {
			checkEquiv(t, sl, inc, incDM, order, profiles, volLog, samples)
			checked++
		}
	}
	if checked == 0 || len(order) == 0 {
		t.Fatalf("degenerate run: %d checkpoints, %d survivors", checked, len(order))
	}
}

func checkEquiv(t *testing.T, sl timeutil.Slot, inc *correlation.ProfileSet, incDM *correlation.DataMatrix,
	order []int, profiles map[int][]float64, volLog []volAdd, samples int) {
	t.Helper()

	fresh := correlation.NewProfileSet(samples)
	for _, id := range order {
		fresh.Add(id, profiles[id])
	}
	if inc.Len() != fresh.Len() {
		t.Fatalf("slot %d: Len: incremental %d, fresh %d", sl, inc.Len(), fresh.Len())
	}
	for _, id := range order {
		pi, pf := inc.Profile(id), fresh.Profile(id)
		if len(pi) != len(pf) {
			t.Fatalf("slot %d: id %d profile length %d vs %d", sl, id, len(pi), len(pf))
		}
		for k := range pi {
			if pi[k] != pf[k] {
				t.Fatalf("slot %d: id %d profile[%d]: %v vs %v", sl, id, k, pi[k], pf[k])
			}
		}
		if inc.Peak(id) != fresh.Peak(id) {
			t.Fatalf("slot %d: id %d Peak: %v vs %v", sl, id, inc.Peak(id), fresh.Peak(id))
		}
		if inc.Mean(id) != fresh.Mean(id) {
			t.Fatalf("slot %d: id %d Mean: %v vs %v", sl, id, inc.Mean(id), fresh.Mean(id))
		}
	}
	// CPU correlation through the pruned ordered kernel on both sides.
	inc.EnsureOrders(nil)
	fresh.EnsureOrders(nil)
	n := len(order)
	if n > 40 {
		n = 40
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := order[i], order[j]
			if ci, cf := inc.CPUCorr(a, b), fresh.CPUCorr(a, b); ci != cf {
				t.Fatalf("slot %d: CPUCorr(%d,%d): %v vs %v", sl, a, b, ci, cf)
			}
		}
	}

	freshDM := correlation.NewDataMatrix()
	for _, va := range volLog {
		freshDM.Add(va.from, va.to, va.vol)
	}
	if incDM.Len() != freshDM.Len() {
		t.Fatalf("slot %d: dm Len: %d vs %d", sl, incDM.Len(), freshDM.Len())
	}
	if incDM.Max() != freshDM.Max() {
		t.Fatalf("slot %d: dm Max: %v vs %v", sl, incDM.Max(), freshDM.Max())
	}
	if incDM.Mean() != freshDM.Mean() {
		t.Fatalf("slot %d: dm Mean: %v vs %v", sl, incDM.Mean(), freshDM.Mean())
	}
	var ti, tf []volAdd
	incDM.Each(func(from, to int, vol units.DataSize) { ti = append(ti, volAdd{from, to, vol}) })
	freshDM.Each(func(from, to int, vol units.DataSize) { tf = append(tf, volAdd{from, to, vol}) })
	if len(ti) != len(tf) {
		t.Fatalf("slot %d: dm Each count: %d vs %d", sl, len(ti), len(tf))
	}
	for k := range ti {
		if ti[k] != tf[k] {
			t.Fatalf("slot %d: dm Each[%d]: %+v vs %+v", sl, k, ti[k], tf[k])
		}
	}
}
