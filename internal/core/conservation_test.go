package core_test

import (
	"fmt"
	"testing"

	"geovmp/internal/config"
	"geovmp/internal/core"
	"geovmp/internal/policy"
	"geovmp/internal/sim"
	"geovmp/internal/timeutil"
	"geovmp/internal/trace"
	"geovmp/internal/units"
)

// checkedController runs the proposed controller inside the simulator and
// holds every Place to the placement-conservation invariant.
type checkedController struct {
	*core.Controller
	t      *testing.T
	slots  int
	sawNew bool
}

func (c *checkedController) Place(in *policy.Input) policy.Placement {
	t := c.t
	active := make(map[int]bool, len(in.ActiveVMs))
	for _, id := range in.ActiveVMs {
		active[id] = true
		if _, ok := in.Current[id]; !ok {
			c.sawNew = true
		}
	}
	// New VMs are seeded from peers inside the slot only: no volume may
	// name a VM outside it.
	in.Volumes.Each(func(from, to int, _ units.DataSize) {
		if !active[from] || !active[to] {
			t.Fatalf("slot %d: volume %d->%d has an endpoint outside the slot's VMs", in.Slot, from, to)
		}
	})
	p := c.Controller.Place(in)
	if len(p.DCOf) != len(in.ActiveVMs) {
		t.Fatalf("slot %d: %d placements for %d VMs", in.Slot, len(p.DCOf), len(in.ActiveVMs))
	}
	for _, id := range in.ActiveVMs {
		d, ok := p.DCOf[id]
		if !ok || d < 0 || d >= len(in.DCs) {
			t.Fatalf("slot %d: VM %d placed at %d (present %v) of %d DCs", in.Slot, id, d, ok, len(in.DCs))
		}
	}
	moved := make(map[int]bool, len(p.Moves))
	for _, m := range p.Moves {
		cur, ok := in.Current[m.ID]
		if !ok || m.From != cur || m.To != p.DCOf[m.ID] || moved[m.ID] {
			t.Fatalf("slot %d: move %+v disagrees with current %d (present %v) or placement %d",
				in.Slot, m, cur, ok, p.DCOf[m.ID])
		}
		moved[m.ID] = true
	}
	pos := c.Positions()
	if len(pos) != len(in.ActiveVMs) {
		t.Fatalf("slot %d: %d positions for %d VMs", in.Slot, len(pos), len(in.ActiveVMs))
	}
	for _, id := range in.ActiveVMs {
		if _, ok := pos[id]; !ok {
			t.Fatalf("slot %d: no position for VM %d", in.Slot, id)
		}
	}
	c.slots++
	return p
}

// TestPlaceConservation runs every preset at small scale, plus a replay of
// one, through the simulator with exact and sampled embedding, and checks
// each slot: every active VM is placed exactly once in range, every move
// leaves the VM's current DC for its placement, the layout holds exactly
// the slot's VMs, and no volume endpoint lies outside the slot.
func TestPlaceConservation(t *testing.T) {
	type source struct {
		name string
		spec config.Spec
	}
	var sources []source
	for _, name := range config.PresetNames() {
		spec, err := config.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, source{name, spec})
	}
	replay, err := config.Preset("geo5dc-dynamic")
	if err != nil {
		t.Fatal(err)
	}
	replay.Scale, replay.Seed = 0.02, 7
	w, err := config.NewWorkload(replay)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := trace.ExportReplay(w, dir, 12, 12); err != nil {
		t.Fatal(err)
	}
	replay.ReplayDir = dir
	sources = append(sources, source{"replay", replay})

	for _, src := range sources {
		for _, sampled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s-sampled=%v", src.name, sampled), func(t *testing.T) {
				spec := src.spec
				spec.Scale = 0.02
				spec.Seed = 7
				spec.Horizon = timeutil.Hours(12)
				spec.FineStepSec = 900
				sc, err := config.Build(spec)
				if err != nil {
					t.Fatal(err)
				}
				ctrl := core.New(0.9, 7)
				if sampled {
					ctrl.Embed.ExactThreshold = 16
					ctrl.Embed.SampleK = 8
				}
				c := &checkedController{Controller: ctrl, t: t}
				if _, err := sim.Run(sc, c); err != nil {
					t.Fatal(err)
				}
				if c.slots == 0 || !c.sawNew {
					t.Fatalf("degenerate run: %d slots, new VMs seen %v", c.slots, c.sawNew)
				}
			})
		}
	}
}
