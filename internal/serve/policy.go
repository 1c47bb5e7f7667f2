package serve

import (
	"slices"

	"geovmp/internal/alloc"
	"geovmp/internal/correlation"
	"geovmp/internal/dc"
	"geovmp/internal/policy"
	"geovmp/internal/units"
)

// SimPolicy adapts the daemon to the batch simulator's policy interface:
// each simulated slot becomes one telemetry observation, the slot's
// departures, and the slot's arrivals, fed through the daemon's sequenced
// decision path. Running it under sim.Run measures the streaming
// controller with the exact energy/latency accounting the batch policies
// get — the eur-drift comparison in examples/serve and the docs comes from
// here. The daemon never migrates (a placed VM stays put until it
// departs), so any consolidation the batch global phase achieves through
// migration shows up as drift.
type SimPolicy struct {
	d *Daemon
}

// NewSimPolicy wraps a daemon for use as a simulator policy. The daemon
// must be dedicated to the simulation: SimPolicy feeds it through the
// internal sequenced path, bypassing HTTP admission control.
func NewSimPolicy(d *Daemon) *SimPolicy { return &SimPolicy{d: d} }

// Name implements policy.Policy.
func (p *SimPolicy) Name() string { return "Serve" }

// Place implements policy.Policy by replaying the slot as a stream.
func (p *SimPolicy) Place(in *policy.Input) policy.Placement {
	obs := Observation{Slot: in.Slot, VMs: make([]VMProfile, 0, len(in.ActiveVMs))}
	for _, id := range in.ActiveVMs {
		obs.VMs = append(obs.VMs, VMProfile{ID: id, Profile: in.Profiles.Profile(id)})
	}
	in.Volumes.Each(func(from, to int, vol units.DataSize) {
		obs.Volumes = append(obs.Volumes, VolumeObs{From: from, To: to, Vol: vol})
	})
	p.d.observeAt(p.d.reserve(1), obs)

	for _, id := range p.d.Residents() {
		if _, ok := slices.BinarySearch(in.ActiveVMs, id); !ok {
			p.d.departAt(p.d.reserve(1), id)
		}
	}
	for _, id := range in.ActiveVMs {
		if p.d.Resident(id) {
			continue
		}
		var img units.DataSize
		if id < len(in.Image) {
			img = in.Image[id]
		}
		p.d.placeAt(p.d.reserve(1), VM{ID: id, Profile: in.Profiles.Profile(id), Image: img})
	}

	dcOf := make(map[int]int, len(in.ActiveVMs))
	for _, id := range in.ActiveVMs {
		dcOf[id] = p.d.DCOf(id)
	}
	return policy.Placement{DCOf: dcOf}
}

// Allocate implements policy.Policy with the correlation-aware local phase
// the proposed batch controller uses, so the comparison isolates the
// global (streaming vs batch) decision path.
func (p *SimPolicy) Allocate(d *dc.DC, ids []int, ps *correlation.ProfileSet) alloc.Result {
	return alloc.CorrelationAware(ids, ps, d.Model, d.Servers)
}
