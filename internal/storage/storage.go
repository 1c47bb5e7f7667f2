// Package storage models durable data placement for VM volumes: VMs are
// grouped into placement groups whose data is kept either as full
// replicas or as a Reed-Solomon RS(k,m) stripe, with shards spread over
// the data centers on a fixed ring. When the fault schedule takes a DC
// down, the model answers two questions each slot:
//
//   - data-loss risk: the probability that some group has more shards
//     unavailable than its code tolerates, computed analytically from
//     the per-DC unavailability (1 for a down DC, the failed-server
//     fraction otherwise), and
//   - repair traffic: the inter-DC flows needed to rebuild the shards
//     that sit on down DCs, emitted into the cross-DC volume matrix so
//     repair competes with user traffic in the network model.
//
// Shard placement is a pure function of the group index, independent of
// where the VMs themselves run, so the model never feeds back into VM
// placement decisions and stays deterministic under any policy.
package storage

import (
	"fmt"
	"math"
	"sort"
)

// Scheme selects the redundancy code.
type Scheme int

// Redundancy schemes.
const (
	// SchemeNone disables the storage model.
	SchemeNone Scheme = iota
	// SchemeReplicated keeps Replicas full copies per group.
	SchemeReplicated
	// SchemeErasure keeps an RS(K,M) stripe: K data + M parity shards,
	// any K of the K+M suffice.
	SchemeErasure
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeNone:
		return "none"
	case SchemeReplicated:
		return "replicated"
	case SchemeErasure:
		return "erasure"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Config declares the data-placement model. The zero value disables it.
type Config struct {
	Scheme Scheme `json:"scheme,omitempty"`
	// Replicas is the copy count for SchemeReplicated. Zero selects 2.
	Replicas int `json:"replicas,omitempty"`
	// K and M are the RS data/parity shard counts for SchemeErasure.
	// Zero K selects 2; zero M selects 2.
	K int `json:"k,omitempty"`
	M int `json:"m,omitempty"`
	// VolumeGBPerVM is each VM's logical volume size. Zero selects 8.
	VolumeGBPerVM float64 `json:"volume_gb_per_vm,omitempty"`
	// GroupSize is the number of VM ids per placement group. Zero
	// selects 4.
	GroupSize int `json:"group_size,omitempty"`
	// RepairSlots spreads one shard rebuild over this many slots of
	// repair traffic. Zero selects 2.
	RepairSlots int `json:"repair_slots,omitempty"`
}

// Enabled reports whether the storage model is active.
func (c Config) Enabled() bool { return c.Scheme != SchemeNone }

// Validate checks the config against a fleet of n DCs. NaN sizes,
// non-positive replica counts and codes wider than the fleet (a stripe
// needs k+m distinct DCs) are rejected.
func (c Config) Validate(n int) error {
	switch c.Scheme {
	case SchemeNone:
		return nil
	case SchemeReplicated:
		if c.Replicas < 0 || c.Replicas == 1 {
			return fmt.Errorf("storage: replicas %d must be >= 2", c.Replicas)
		}
		if r := c.replicas(); r > n {
			return fmt.Errorf("storage: %d replicas need %d DCs, fleet has %d", r, r, n)
		}
	case SchemeErasure:
		if c.K < 0 || c.M < 0 {
			return fmt.Errorf("storage: negative code RS(%d,%d)", c.K, c.M)
		}
		if k, m := c.code(); k+m > n {
			return fmt.Errorf("storage: RS(%d,%d) needs %d DCs, fleet has %d", k, m, k+m, n)
		}
	default:
		return fmt.Errorf("storage: unknown scheme %d", int(c.Scheme))
	}
	if c.VolumeGBPerVM != 0 && !(c.VolumeGBPerVM > 0 && !math.IsInf(c.VolumeGBPerVM, 1)) {
		return fmt.Errorf("storage: volume_gb_per_vm %v out of range", c.VolumeGBPerVM)
	}
	if c.GroupSize < 0 {
		return fmt.Errorf("storage: negative group_size %d", c.GroupSize)
	}
	if c.RepairSlots < 0 {
		return fmt.Errorf("storage: negative repair_slots %d", c.RepairSlots)
	}
	return nil
}

func (c Config) replicas() int {
	if c.Replicas >= 2 {
		return c.Replicas
	}
	return 2
}

func (c Config) code() (k, m int) {
	k, m = c.K, c.M
	if k <= 0 {
		k = 2
	}
	if m <= 0 {
		m = 2
	}
	return k, m
}

func (c Config) volumeGB() float64 {
	if c.VolumeGBPerVM > 0 {
		return c.VolumeGBPerVM
	}
	return 8
}

func (c Config) groupSize() int {
	if c.GroupSize > 0 {
		return c.GroupSize
	}
	return 4
}

func (c Config) repairSlots() int {
	if c.RepairSlots > 0 {
		return c.RepairSlots
	}
	return 2
}

// Model is a compiled storage layout over n DCs.
type Model struct {
	cfg     Config
	n       int
	shards  int // shards per group (R, or k+m)
	needK   int // shards that must survive (1 for replication, k for RS)
	tol     int // tolerated simultaneous shard losses
	groupSz int
	volGB   float64
	repSl   int

	counts map[int]int // scratch: active VMs per group
	gids   []int       // scratch: sorted group ids
	dist   []float64   // scratch: loss-count DP row
}

// NewModel compiles the config for a fleet of n DCs. It returns nil
// for a disabled config so callers can gate on the pointer.
func NewModel(cfg Config, n int) *Model {
	if !cfg.Enabled() || n <= 0 {
		return nil
	}
	m := &Model{
		cfg:     cfg,
		n:       n,
		groupSz: cfg.groupSize(),
		volGB:   cfg.volumeGB(),
		repSl:   cfg.repairSlots(),
		counts:  map[int]int{},
	}
	switch cfg.Scheme {
	case SchemeReplicated:
		r := cfg.replicas()
		m.shards, m.needK, m.tol = r, 1, r-1
	case SchemeErasure:
		k, mm := cfg.code()
		m.shards, m.needK, m.tol = k+mm, k, mm
	}
	m.dist = make([]float64, m.shards+1)
	return m
}

// shardDC places shard j of group g: a fixed ring keeps the stripe on
// distinct DCs and spreads load evenly across the fleet.
func (m *Model) shardDC(g, j int) int { return (g + j) % m.n }

// SlotStats is one slot's durability assessment.
type SlotStats struct {
	// Groups is the number of active placement groups.
	Groups int
	// LossProb is the mean per-group probability of losing data this
	// slot, given the per-DC unavailability.
	LossProb float64
	// RepairGB is the total repair traffic emitted this slot.
	RepairGB float64
}

// Assess computes one slot's durability state. ids are the active VM
// ids (any order), down the per-DC outage flags, capFrac the remaining
// capacity fractions (used as per-shard unavailability on live DCs; nil
// means fully healthy). For every shard on a down DC, repair traffic
// toward a substitute DC is emitted through the repair callback (which
// may be nil). The assessment is deterministic: groups are visited in
// ascending id order.
func (m *Model) Assess(ids []int, down []bool, capFrac []float64, repair func(from, to int, gb float64)) SlotStats {
	var st SlotStats
	if m == nil || len(ids) == 0 {
		return st
	}
	for k := range m.counts {
		delete(m.counts, k)
	}
	for _, id := range ids {
		m.counts[id/m.groupSz]++
	}
	m.gids = m.gids[:0]
	for g := range m.counts {
		m.gids = append(m.gids, g)
	}
	sort.Ints(m.gids)
	st.Groups = len(m.gids)

	anyDown := false
	for d := range down {
		if down[d] {
			anyDown = true
			break
		}
	}
	anyRisk := anyDown
	if !anyRisk && capFrac != nil {
		for _, f := range capFrac {
			if f < 1 {
				anyRisk = true
				break
			}
		}
	}
	if !anyRisk {
		return st
	}

	var lossSum float64
	for _, g := range m.gids {
		groupGB := float64(m.counts[g]) * m.volGB
		shardGB := groupGB / float64(m.needK)
		lossSum += m.groupLossProb(g, down, capFrac)
		if !anyDown || repair == nil {
			continue
		}
		for j := 0; j < m.shards; j++ {
			d := m.shardDC(g, j)
			if !down[d] {
				continue
			}
			dst := m.substitute(g, down)
			if dst < 0 {
				continue // nowhere to rebuild; the loss term covers it
			}
			// Rebuilding one shard reads needK surviving shards (one
			// full copy under replication, k stripe shards under RS);
			// each read flows from its host toward the substitute,
			// spread over the repair window.
			perSlot := shardGB / float64(m.repSl)
			sent := 0
			for jj := 0; jj < m.shards && sent < m.needK; jj++ {
				src := m.shardDC(g, jj)
				if down[src] || src == dst {
					continue
				}
				if repair != nil {
					repair(src, dst, perSlot)
				}
				st.RepairGB += perSlot
				sent++
			}
		}
	}
	st.LossProb = lossSum / float64(st.Groups)
	return st
}

// groupLossProb computes P(#unavailable shards > tol) for group g by
// exact dynamic programming over the per-shard unavailability: 1 on a
// down DC, the lost-capacity fraction otherwise.
func (m *Model) groupLossProb(g int, down []bool, capFrac []float64) float64 {
	dist := m.dist
	for i := range dist {
		dist[i] = 0
	}
	dist[0] = 1
	for j := 0; j < m.shards; j++ {
		d := m.shardDC(g, j)
		var p float64
		switch {
		case d < len(down) && down[d]:
			p = 1
		case capFrac != nil && d < len(capFrac):
			p = 1 - capFrac[d]
		}
		if p <= 0 {
			continue
		}
		for i := j + 1; i > 0; i-- {
			dist[i] = dist[i]*(1-p) + dist[i-1]*p
		}
		dist[0] *= 1 - p
	}
	var loss float64
	for i := m.tol + 1; i <= m.shards; i++ {
		loss += dist[i]
	}
	return loss
}

// substitute picks the rebuild destination for group g: the first ring
// DC past the stripe that is up and not already hosting a shard.
func (m *Model) substitute(g int, down []bool) int {
	for t := 0; t < m.n; t++ {
		d := (g + m.shards + t) % m.n
		if d < len(down) && down[d] {
			continue
		}
		hosts := false
		for j := 0; j < m.shards; j++ {
			if m.shardDC(g, j) == d {
				hosts = true
				break
			}
		}
		if !hosts {
			return d
		}
	}
	return -1
}
