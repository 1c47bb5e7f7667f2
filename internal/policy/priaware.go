package policy

import (
	"sort"

	"geovmp/internal/alloc"
	"geovmp/internal/correlation"
	"geovmp/internal/dc"
)

// PriAware reimplements the paper's cost-aware baseline [17] (Gu et al.,
// ICNC 2015): "the VMs are packed and placed onto DCs and servers with the
// lowest current grid price, but it neglects to maximize free energies
// usage."
//
// Every slot it re-sorts the DCs by the current tariff and greedily packs
// the fleet (largest VMs first) into the cheapest DC until a utilization
// guard fills, then the next cheapest. Existing VMs chase the cheap DC too,
// throttled by the migration latency budget — when the peak/off-peak
// windows rotate, the policy pays a migration storm, and its disregard for
// renewables and batteries is what the proposed method beats on cost.
type PriAware struct{}

// priFillFactor caps the fraction of a DC's CPU the packer will commit
// before spilling to the next cheapest DC.
const priFillFactor float64 = 0.9

// Name implements Policy.
func (PriAware) Name() string { return "Pri-aware" }

// Place implements Policy.
func (PriAware) Place(in *Input) Placement {
	// DCs by ascending current price; ties by index for determinism.
	dcOrder := make([]int, len(in.DCs))
	for i := range dcOrder {
		dcOrder[i] = i
	}
	sort.Slice(dcOrder, func(a, b int) bool {
		pa, pb := in.Prices[dcOrder[a]], in.Prices[dcOrder[b]]
		if pa != pb {
			return pa < pb
		}
		return dcOrder[a] < dcOrder[b]
	})

	used := make([]float64, len(in.DCs))
	wish := make(map[int]int, len(in.ActiveVMs))
	order := sortedByDemandDesc(in)
	for _, id := range order {
		d := peakDemand(in, id)
		target := -1
		for _, i := range dcOrder {
			if used[i]+d <= priFillFactor*in.DCs[i].CPUCapacity() {
				target = i
				break
			}
		}
		if target < 0 {
			target = dcOrder[len(dcOrder)-1]
		}
		used[target] += d
		wish[id] = target
	}
	return applyWishes(in, order, wish)
}

// Allocate implements Policy with stationary FFD: [17] packs by load only,
// no correlation awareness.
func (PriAware) Allocate(d *dc.DC, ids []int, ps *correlation.ProfileSet) alloc.Result {
	return plainAllocate(d, ids, ps)
}
