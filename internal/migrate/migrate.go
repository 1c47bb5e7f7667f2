// Package migrate implements Algorithm 2 of the paper: revising the
// modified k-means output into an executable migration plan under the hard
// inter-DC migration latency constraint.
//
// The k-means target assignment induces, per DC, an outgoing queue (VMs the
// clustering wants to move away, sorted by descending distance from the
// DC's centroid — evict the worst-placed first) and an incoming queue (VMs
// it wants to receive, ascending — admit the best-placed first). The
// algorithm walks the DCs: an under-cap DC admits from its incoming queue,
// an over-cap DC evicts from its outgoing queue and the walk follows the
// evicted VM to its destination. A migration executes only when the VM's
// image can cross the network within the latency constraint (the paper's
// QoS 98%: under 2% of the slot), accounting for the budget already
// consumed on that link pair this slot. VMs that cannot move stay where
// they were; brand-new VMs take their k-means DC unconditionally ("without
// the consideration of the network latency constraint").
package migrate

import (
	"sort"

	"geovmp/internal/units"
)

// Candidate is one VM in the revision.
type Candidate struct {
	ID      int
	Current int            // current DC, or -1 for a newly arrived VM
	Target  int            // DC chosen by the clustering step
	Load    float64        // predicted slot energy, Joules (cap accounting)
	Image   units.DataSize // migration image size
	Dist    float64        // distance to Target's centroid (queue ordering)
}

// Network abstracts the latency model; satisfied by *network.State.
type Network interface {
	// MigrationTime returns the seconds needed to move an image from DC i
	// to DC j under current link conditions.
	MigrationTime(i, j int, size units.DataSize) float64
}

// Config parameterizes the revision.
type Config struct {
	NDC        int
	Caps       []float64 // per-DC energy caps, Joules
	Loads      []float64 // per-DC load *before* any migration, Joules (VMs currently there)
	Constraint float64   // latency constraint per link pair, seconds (e.g. 72 = 2% of a slot)
	Net        Network
	// MaxMoves caps the number of migrations the revision may execute: 0
	// means unlimited (the paper's Algorithm 2), a positive value stops
	// executing once that many moves are planned (later wishes are
	// rejected), and a negative value rejects every wish — the
	// rolling-horizon engine's "budget exhausted" state.
	MaxMoves int
	// Forbidden marks DCs no move may target (nil allows all): the fault
	// engine's evacuation path forbids the dead DCs. A wish whose Target
	// is forbidden is rejected; a new VM (Current < 0) still takes its
	// target unconditionally — keeping arrivals off dead DCs is the
	// caller's job, since it decided the targets.
	Forbidden []bool
}

// Move records one executed migration.
type Move struct {
	ID       int
	From, To int
	Image    units.DataSize
	Seconds  float64
}

// Result is the plan after revision.
type Result struct {
	// Placement maps every candidate id to its final DC; DC holds the same
	// per candidate, in candidate order.
	Placement map[int]int
	DC        []int
	Moves     []Move
	// Rejected counts migration wishes dropped for latency or budget.
	Rejected int
	// LinkSeconds[i][j] is the migration time consumed on the i->j pair.
	LinkSeconds [][]float64
	// Loads is the per-DC load after the revision.
	Loads []float64
}

// queue entries, kept small for cache friendliness: c indexes the
// candidate, id breaks distance ties.
type qent struct {
	c    int
	id   int
	dist float64
}

// Run executes Algorithm 2 over the candidates.
func Run(cands []Candidate, cfg Config) Result {
	res := Result{
		DC:          make([]int, len(cands)),
		LinkSeconds: make([][]float64, cfg.NDC),
	}
	for i := range res.LinkSeconds {
		res.LinkSeconds[i] = make([]float64, cfg.NDC)
	}
	loads := append([]float64(nil), cfg.Loads...)

	qin := make([][]qent, cfg.NDC)  // per destination DC
	qout := make([][]qent, cfg.NDC) // per source DC
	live := 0                       // queued candidates not yet dropped
	for i := range cands {
		c := &cands[i]
		switch {
		case c.Current < 0:
			// New VM: placed at its k-means DC without latency checks.
			res.DC[i] = c.Target
			loads[c.Target] += c.Load
		case c.Target == c.Current:
			res.DC[i] = c.Current
		default:
			// Wants to move: provisionally stays, queued for revision.
			res.DC[i] = c.Current
			qin[c.Target] = append(qin[c.Target], qent{c: i, id: c.ID, dist: c.Dist})
			qout[c.Current] = append(qout[c.Current], qent{c: i, id: c.ID, dist: c.Dist})
			live++
		}
	}
	// Qin ascending by distance to the destination centroid (admit best
	// fits first), Qout descending (evict worst fits first). Ties by id for
	// determinism.
	for d := 0; d < cfg.NDC; d++ {
		in, out := qin[d], qout[d]
		sort.Slice(in, func(a, b int) bool {
			if in[a].dist != in[b].dist {
				return in[a].dist < in[b].dist
			}
			return in[a].id < in[b].id
		})
		sort.Slice(out, func(a, b int) bool {
			if out[a].dist != out[b].dist {
				return out[a].dist > out[b].dist
			}
			return out[a].id < out[b].id
		})
	}

	// A candidate leaves both its queues the first time either pops it;
	// the walk ends once no queued candidate is left.
	dropped := make([]bool, len(cands))
	pop := func(q []qent) (int, []qent) {
		for len(q) > 0 {
			head := q[0]
			q = q[1:]
			if !dropped[head.c] {
				dropped[head.c] = true
				live--
				return head.c, q
			}
		}
		return -1, q
	}
	// feasible checks the move-count budget and the latency constraint for
	// moving c from->to, given the budget already burned on that link pair.
	feasible := func(c *Candidate, from, to int) (float64, bool) {
		if cfg.MaxMoves < 0 || (cfg.MaxMoves > 0 && len(res.Moves) >= cfg.MaxMoves) {
			return 0, false
		}
		if cfg.Forbidden != nil && to >= 0 && to < len(cfg.Forbidden) && cfg.Forbidden[to] {
			return 0, false
		}
		t := cfg.Net.MigrationTime(from, to, c.Image)
		if res.LinkSeconds[from][to]+t < cfg.Constraint {
			return t, true
		}
		return t, false
	}
	execute := func(ci, from, to int, t float64) {
		c := &cands[ci]
		res.DC[ci] = to
		res.Moves = append(res.Moves, Move{ID: c.ID, From: from, To: to, Image: c.Image, Seconds: t})
		res.LinkSeconds[from][to] += t
		loads[from] -= c.Load
		loads[to] += c.Load
	}

	// Main walk. A safety bound of 4x the queue population guards against
	// cycling in degenerate configurations (it is never hit in tests).
	i := 0
	maxSteps := 4 * (len(cands) + cfg.NDC)
	for step := 0; step < maxSteps && live > 0; step++ {
		if loads[i] < cfg.Caps[i] {
			var ci int
			ci, qin[i] = pop(qin[i])
			if ci < 0 {
				i = (i + 1) % cfg.NDC
				continue
			}
			from := cands[ci].Current
			if t, ok := feasible(&cands[ci], from, i); ok {
				execute(ci, from, i, t)
			} else {
				res.Rejected++
			}
		} else {
			var ci int
			ci, qout[i] = pop(qout[i])
			if ci < 0 {
				i = (i + 1) % cfg.NDC
				continue
			}
			to := cands[ci].Target
			if t, ok := feasible(&cands[ci], i, to); ok {
				execute(ci, i, to, t)
				i = to // follow the evicted VM, per Algorithm 2 line 20
			} else {
				res.Rejected++
			}
		}
	}
	res.Placement = make(map[int]int, len(cands))
	for ci, c := range cands {
		res.Placement[c.ID] = res.DC[ci]
	}
	res.Loads = loads
	return res
}
