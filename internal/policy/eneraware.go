package policy

import (
	"geovmp/internal/alloc"
	"geovmp/internal/correlation"
	"geovmp/internal/dc"
)

// EnerAware reimplements the paper's energy-aware baseline [5] (Kim et al.,
// DATE 2013) lifted to multiple DCs the way the paper describes it: "the
// Ener-aware approach first uses the FFD clustering heuristic, placing VMs
// into the first DC in which its load capacity fits, and then packs the VMs
// into the minimal number of active servers based on the CPU-load
// correlation."
//
// Globally it is energy-blind across sites: no price, renewable or battery
// signal reaches the clustering, and placed VMs never migrate (the single-DC
// algorithm has no inter-DC mobility), which is exactly why it loses on
// operational cost in Fig. 1 while staying competitive on energy in Fig. 2.
type EnerAware struct{}

// Name implements Policy.
func (EnerAware) Name() string { return "Ener-aware" }

// enerFillFactor caps how much of a DC's CPU the FFD admission will commit
// (peak-based sizing); the paper's single-DC algorithm packs "into the
// first DC in which its load capacity fits".
const enerFillFactor float64 = 0.9

// Place implements Policy: first-fit-decreasing of new VMs over the DCs in
// fixed order, admission by stationary peak-CPU headroom; existing VMs stay
// put.
func (EnerAware) Place(in *Input) Placement {
	p := Placement{DCOf: make(map[int]int, len(in.ActiveVMs))}
	// Track CPU headroom per DC, pre-charged with the VMs already there.
	used := make([]float64, len(in.DCs))
	for _, id := range in.ActiveVMs {
		if cur, ok := in.Current[id]; ok {
			used[cur] += peakDemand(in, id)
			p.DCOf[id] = cur
		}
	}
	for _, id := range sortedByDemandDesc(in) {
		if _, ok := in.Current[id]; ok {
			continue // existing VMs never move
		}
		d := peakDemand(in, id)
		target := -1
		for i, site := range in.DCs {
			if used[i]+d <= enerFillFactor*site.CPUCapacity() {
				target = i
				break
			}
		}
		if target < 0 {
			// Fleet full by headroom accounting: least-loaded fallback.
			target = 0
			for i := 1; i < len(in.DCs); i++ {
				if used[i]/in.DCs[i].CPUCapacity() < used[target]/in.DCs[target].CPUCapacity() {
					target = i
				}
			}
		}
		used[target] += d
		p.DCOf[id] = target
	}
	return p
}

// Allocate implements Policy with the correlation-aware packer — the heart
// of [5].
func (EnerAware) Allocate(d *dc.DC, ids []int, ps *correlation.ProfileSet) alloc.Result {
	return corrAwareAllocate(d, ids, ps)
}
