package policy

import (
	"geovmp/internal/alloc"
	"geovmp/internal/correlation"
	"geovmp/internal/dc"
	"geovmp/internal/units"
)

// NetAware reimplements the paper's network-aware baseline [6] (Biran et
// al., CCGRID 2012) in its topology-agnostic GH (greedy heuristic) form:
// place VMs so that heavily-communicating pairs share a DC while keeping
// the load balanced across DCs — "the goal of Net-aware is to balance the
// network across DCs, which in turn leads to better worst-case and higher
// average response time".
//
// Greedy scoring: VMs are visited in descending total-traffic order; each
// scores every DC by the fraction of its traffic already mapped there,
// minus an imbalance penalty proportional to the DC's relative load, plus a
// stability bonus for its current DC (moving has a real network price).
// Prices, renewables and batteries are invisible to it — the reason it
// trails on operational cost in Fig. 1.
type NetAware struct{}

const (
	// netBalanceWeight scales the load-imbalance penalty relative to the
	// normalized traffic affinity.
	netBalanceWeight float64 = 1.5
	// netStayBonus is the score bonus for remaining at the current DC.
	netStayBonus float64 = 0.1
)

// Name implements Policy.
func (NetAware) Name() string { return "Net-aware" }

// Place implements Policy.
func (NetAware) Place(in *Input) Placement {
	// Undirected adjacency and per-VM total traffic from the last slot's
	// volume matrix.
	type edge struct {
		peer int
		vol  float64
	}
	adj := make(map[int][]edge)
	tot := make(map[int]float64)
	in.Volumes.Each(func(from, to int, vol units.DataSize) {
		v := float64(vol)
		adj[from] = append(adj[from], edge{peer: to, vol: v})
		adj[to] = append(adj[to], edge{peer: from, vol: v})
		tot[from] += v
		tot[to] += v
	})

	// Heavy communicators first so they anchor their partners; ties by id.
	order := append([]int(nil), in.ActiveVMs...)
	sortByKeyDesc(order, func(id int) float64 { return tot[id] })

	wish := make(map[int]int, len(order))
	load := make([]float64, len(in.DCs))
	var totalLoad float64
	for _, id := range order {
		demand := cpuDemand(in, id)
		// Traffic affinity of id toward each DC under the partial mapping.
		aff := make([]float64, len(in.DCs))
		for _, e := range adj[id] {
			if d, ok := wish[e.peer]; ok {
				aff[d] += e.vol
			}
		}
		cur, hasCur := in.Current[id]
		best := -1
		bestScore := 0.0
		for d := range in.DCs {
			score := 0.0
			if tot[id] > 0 {
				score += aff[d] / tot[id]
			}
			// Imbalance penalty: this DC's utilization relative to the
			// fleet-wide mean utilization so far.
			capD := in.DCs[d].CPUCapacity()
			meanU := 0.0
			if c := in.DCs.TotalCPUCapacity(); c > 0 {
				meanU = totalLoad / c
			}
			score -= netBalanceWeight * (load[d]/capD - meanU)
			if hasCur && d == cur {
				score += netStayBonus
			}
			if best < 0 || score > bestScore {
				best = d
				bestScore = score
			}
		}
		wish[id] = best
		load[best] += demand
		totalLoad += demand
	}
	return applyWishes(in, order, wish)
}

// Allocate implements Policy with stationary FFD, as [6] has no power
// model.
func (NetAware) Allocate(d *dc.DC, ids []int, ps *correlation.ProfileSet) alloc.Result {
	return plainAllocate(d, ids, ps)
}
