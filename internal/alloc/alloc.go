// Package alloc implements the paper's local phase: allocating each DC
// cluster's VMs to the minimum number of servers and choosing each server's
// DVFS frequency.
//
// Two allocators are provided:
//
//   - CorrelationAware reproduces the approach of Kim et al. (DATE 2013),
//     the paper's reference [5] and the engine of both the proposed method
//     and the Ener-aware baseline. It packs VMs first-fit-decreasing by
//     peak utilization, but admission uses the *combined peak* of the
//     candidate server's aggregated profile — two anti-correlated VMs whose
//     peaks never coincide can share capacity that stationary sizing would
//     deny, and two correlated VMs are pushed to different servers because
//     their combined peak bursts through the cap. After packing, each
//     server gets the lowest frequency level whose capacity still covers
//     its combined peak (the DVFS step).
//
//   - PlainFFD is the stationary baseline used by Pri-aware and Net-aware
//     locally: admission by sum of individual peak utilizations.
//
// Both honor a finite server budget; when a DC is truly out of capacity the
// remaining VMs overflow onto the least-loaded server (tracked in
// Result.Overflowed — the simulator surfaces it as degraded performance
// rather than silently dropping load).
//
// Hot-sample-first admission. The first-fit scan is dominated by servers
// that are already full, so every combined-peak server remembers its hot
// sample t*, the index of its aggregate's largest value, and the scan skips
// a server without evaluating the full combined peak when
// aggregate[t*] + prof[t*] > capTop+1e-9. The skip is exact: that sum is one
// of the sums the combined peak maximizes, with the same operands and the
// same expression, so the peak is at least the sum and admission would
// reject; a NaN sum fails the > test and never skips. The chosen server,
// its Peak bits, its DVFS level and Overflowed are therefore those of the
// plain scan. The test lives only in the first-fit loops (pack's and
// Tracker.Probe's): the new-server and overflow paths call the combined
// peak for its value, not its verdict. PlainFFD admits on the stationary
// sum of peaks and never skips.
package alloc

import (
	"cmp"
	"slices"

	"geovmp/internal/correlation"
	"geovmp/internal/power"
)

// ServerAlloc is one active server's allocation.
type ServerAlloc struct {
	VMs       []int
	Level     int     // DVFS frequency level index
	Peak      float64 // admission peak estimate (combined or stationary)
	aggregate []float64
	hot       int // index of aggregate's largest sample (see the package doc)
}

// Result is a DC's local allocation for one slot.
type Result struct {
	Servers    []ServerAlloc
	Active     int // number of servers powered on
	Overflowed int // VMs placed past nominal capacity
}

// CorrelationAware packs ids onto at most maxServers servers of the given
// model using combined-peak admission over the slot profiles in ps.
func CorrelationAware(ids []int, ps *correlation.ProfileSet, model *power.ServerModel, maxServers int) Result {
	return pack(ids, ps, model, maxServers, true)
}

// PlainFFD packs ids with stationary sum-of-peaks admission.
func PlainFFD(ids []int, ps *correlation.ProfileSet, model *power.ServerModel, maxServers int) Result {
	return pack(ids, ps, model, maxServers, false)
}

func pack(ids []int, ps *correlation.ProfileSet, model *power.ServerModel, maxServers int, corrAware bool) Result {
	samples := ps.Samples()

	// First-fit-decreasing order by individual peak; ties by id (a total
	// order, so the sort's permutation is unique and algorithm-independent).
	order := append([]int(nil), ids...)
	slices.SortFunc(order, func(a, b int) int {
		pa, pb := ps.Peak(a), ps.Peak(b)
		switch {
		case pa > pb:
			return -1
		case pa < pb:
			return 1
		}
		return cmp.Compare(a, b)
	})

	var res Result
	limit := model.MaxCapacity() + 1e-9
	// The VM's profile is hoisted out of the first-fit scan: admit runs
	// once per candidate server, and re-fetching the row there dominated
	// the packing cost.
	admit := func(srv *ServerAlloc, id int, prof []float64) (float64, bool) {
		var peak float64
		if corrAware {
			peak = combinedPeak(srv.aggregate, prof)
		} else {
			peak = srv.Peak + ps.Peak(id)
		}
		return peak, peak <= limit
	}
	place := func(srv *ServerAlloc, id int, prof []float64, peak float64) {
		srv.VMs = append(srv.VMs, id)
		srv.Peak = peak
		if corrAware {
			for t, u := range prof {
				srv.aggregate[t] += u
			}
			_, srv.hot = selfPeak(srv.aggregate)
		}
	}

	for _, id := range order {
		var prof []float64
		if corrAware {
			prof = ps.Profile(id)
		}
		placed := false
		for s := range res.Servers {
			srv := &res.Servers[s]
			if hotRejects(srv.aggregate, srv.hot, prof, limit) {
				continue
			}
			if peak, ok := admit(srv, id, prof); ok {
				place(srv, id, prof, peak)
				placed = true
				break
			}
		}
		if placed {
			continue
		}
		if len(res.Servers) < maxServers {
			srv := ServerAlloc{aggregate: make([]float64, samples)}
			peak, _ := admit(&srv, id, prof)
			place(&srv, id, prof, peak)
			res.Servers = append(res.Servers, srv)
			continue
		}
		// Out of servers: overflow onto the least-peaked server.
		best := 0
		for s := 1; s < len(res.Servers); s++ {
			if res.Servers[s].Peak < res.Servers[best].Peak {
				best = s
			}
		}
		if len(res.Servers) == 0 {
			// No server budget at all; drop silently is unacceptable, so
			// open one anyway and flag it.
			res.Servers = append(res.Servers, ServerAlloc{aggregate: make([]float64, samples)})
		}
		peak, _ := admit(&res.Servers[best], id, prof)
		place(&res.Servers[best], id, prof, peak)
		res.Overflowed++
	}

	// DVFS: lowest level covering each server's admission peak.
	for s := range res.Servers {
		lvl, _ := model.LowestLevelFor(res.Servers[s].Peak)
		res.Servers[s].Level = lvl
	}
	res.Active = len(res.Servers)
	return res
}

// combinedPeak returns the admission peak of adding prof to a server whose
// aggregate profile is agg: the largest agg[t]+prof[t], floored at 0 (a NaN
// sum never raises it). prof must be no longer than agg. It is the one
// combined-peak scan both first-fit surfaces share.
func combinedPeak(agg, prof []float64) float64 {
	agg = agg[:len(prof)]
	peak := 0.0
	for t, u := range prof {
		if s := agg[t] + u; s > peak {
			peak = s
		}
	}
	return peak
}

// hotRejects reports whether adding prof to a server whose aggregate agg
// has hot sample hot certainly breaks limit: the hot sum is one of the sums
// combinedPeak maximizes, so when it exceeds limit the combined peak does
// too. It never rejects on a NaN sum or when prof is too short to reach
// the hot sample.
func hotRejects(agg []float64, hot int, prof []float64, limit float64) bool {
	return hot < len(prof) && agg[hot]+prof[hot] > limit
}

// selfPeak returns agg's largest value floored at 0, and the index of that
// value (0 when no value is positive) — the server's hot sample.
func selfPeak(agg []float64) (peak float64, hot int) {
	for t, v := range agg {
		if v > peak {
			peak, hot = v, t
		}
	}
	return peak, hot
}
