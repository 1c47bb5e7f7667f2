package core

import (
	"math"
	"testing"

	"geovmp/internal/battery"
	"geovmp/internal/cooling"
	"geovmp/internal/correlation"
	"geovmp/internal/dc"
	"geovmp/internal/embed"
	"geovmp/internal/green"
	"geovmp/internal/network"
	"geovmp/internal/policy"
	"geovmp/internal/power"
	"geovmp/internal/price"
	"geovmp/internal/rng"
	"geovmp/internal/solar"
	"geovmp/internal/units"
)

func testFleet(t *testing.T) dc.Fleet {
	t.Helper()
	climates := []cooling.Climate{cooling.Lisbon(), cooling.Zurich(), cooling.Helsinki()}
	plants := []solar.Plant{solar.LisbonPlant(), solar.ZurichPlant(), solar.HelsinkiPlant()}
	tariffs := []price.Tariff{price.LisbonTariff(), price.ZurichTariff(), price.HelsinkiTariff()}
	fleet := make(dc.Fleet, 3)
	for i := range fleet {
		bank, err := battery.New(battery.Config{Capacity: 50 * units.KilowattHour, DoD: 0.5, InitialSoC: 0.75})
		if err != nil {
			t.Fatal(err)
		}
		fleet[i] = &dc.DC{
			Index: i, Name: tariffs[i].Name, Servers: 6,
			Model:   power.E5410(),
			Cooling: cooling.Site{Climate: climates[i], Model: cooling.DefaultPUE()},
			Plant:   plants[i], Bank: bank, Tariff: tariffs[i],
			Forecast: &solar.LastValue{},
			Green:    &green.Controller{Tariff: tariffs[i], Bank: bank},
		}
	}
	return fleet
}

// buildInput creates an Input with nVMs; pairs (2k, 2k+1) exchange data.
func buildInput(t *testing.T, nVMs int, current map[int]int) *policy.Input {
	t.Helper()
	fleet := testFleet(t)
	ps := correlation.NewProfileSet(4)
	vmEnergy := make([]float64, nVMs+8)
	image := make([]units.DataSize, nVMs+8)
	ids := make([]int, nVMs)
	dm := correlation.NewDataMatrix()
	for id := 0; id < nVMs; id++ {
		ids[id] = id
		phase := id % 4
		prof := []float64{0.2, 0.2, 0.2, 0.2}
		prof[phase] = 0.8
		ps.Add(id, prof)
		vmEnergy[id] = 1000
		image[id] = 2 * units.Gigabyte
		if id%2 == 1 {
			dm.Add(id-1, id, 20*units.Megabyte)
			dm.Add(id, id-1, 15*units.Megabyte)
		}
	}
	if current == nil {
		current = map[int]int{}
	}
	return &policy.Input{
		Slot:          1,
		ActiveVMs:     ids,
		Current:       current,
		Profiles:      ps,
		Volumes:       dm,
		VMEnergy:      vmEnergy,
		Image:         image,
		DCs:           fleet,
		Prices:        []units.Price{0.22, 0.26, 0.16},
		RenewForecast: make([]units.Energy, 3),
		BatteryAvail:  make([]units.Energy, 3),
		LastEnergy:    make([]units.Energy, 3),
		Net:           network.NewState(network.PaperTopology(), rng.New(3)),
		Constraint:    72,
	}
}

func TestName(t *testing.T) {
	if New(0.5, 1).Name() != "Proposed" {
		t.Fatal("name drifted")
	}
}

func TestNewClampsAlpha(t *testing.T) {
	for _, bad := range []float64{-1, 2, math.NaN()} {
		if got := New(bad, 1).Alpha; got != 0.9 {
			t.Fatalf("alpha %v resolved to %v, want the 0.9 default", bad, got)
		}
	}
	if New(0.3, 1).Alpha != 0.3 {
		t.Fatal("valid alpha overridden")
	}
}

func TestPlaceCoversEveryVM(t *testing.T) {
	c := New(0.9, 7)
	in := buildInput(t, 24, nil)
	p := c.Place(in)
	for _, id := range in.ActiveVMs {
		d, ok := p.DCOf[id]
		if !ok || d < 0 || d >= 3 {
			t.Fatalf("VM %d placement invalid: %d (ok=%v)", id, d, ok)
		}
	}
}

func TestPlaceKeepsDataPairsTogether(t *testing.T) {
	c := New(0.9, 7)
	in := buildInput(t, 24, nil)
	p := c.Place(in)
	together := 0
	for id := 0; id < 24; id += 2 {
		if p.DCOf[id] == p.DCOf[id+1] {
			together++
		}
	}
	if together < 9 {
		t.Fatalf("only %d/12 data pairs colocated", together)
	}
}

func TestCapsWaterFilling(t *testing.T) {
	c := New(0.9, 7)
	in := buildInput(t, 6, nil)
	// Fleet demand: 6 kJ (VMEnergy) x headroom.
	// Give DC1 (expensive Zurich) a renewable forecast covering everything:
	// merit order must hand it the whole budget despite its tariff.
	in.RenewForecast[1] = units.Energy(1e6)
	caps := c.caps(in)
	if caps[1] < caps[0] || caps[1] < caps[2] {
		t.Fatalf("renewable-rich DC not favored: %v", caps)
	}
}

func TestCapsGridGoesToCheapest(t *testing.T) {
	c := New(0.9, 7)
	in := buildInput(t, 6, nil)
	// No free energy anywhere: grid water-filling should favor DC2
	// (cheapest price 0.16).
	caps := c.caps(in)
	if !(caps[2] > caps[0] && caps[2] > caps[1]) {
		t.Fatalf("cheapest DC not favored: %v", caps)
	}
	// Budget conservation: caps sum to demand x headroom (6000 x 1.1),
	// well under any ceiling.
	var sum float64
	for _, v := range caps {
		sum += v
	}
	want := 6000 * 1.1
	if sum < want*0.99 || sum > want*1.01 {
		t.Fatalf("caps sum %v, want ~%v", sum, want)
	}
}

func TestCapsBatteryPricedByOffPeak(t *testing.T) {
	c := New(0.9, 7)
	in := buildInput(t, 6, nil)
	// Batteries only; Helsinki's off-peak (0.08) is the cheapest refill, so
	// its battery tier wins the budget.
	for i := range in.BatteryAvail {
		in.BatteryAvail[i] = units.Energy(1e6)
	}
	caps := c.caps(in)
	if !(caps[2] > caps[0] && caps[2] > caps[1]) {
		t.Fatalf("cheapest battery not favored: %v", caps)
	}
}

func TestCapsSmoothingDampsSwings(t *testing.T) {
	c := New(0.9, 7)
	in := buildInput(t, 6, nil)
	in.RenewForecast[0] = units.Energy(1e6)
	first := append([]float64(nil), c.caps(in)...)
	// Flip the free energy to DC2 and recompute: smoothing keeps DC0's cap
	// from collapsing instantly.
	in.RenewForecast[0] = 0
	in.RenewForecast[2] = units.Energy(1e6)
	second := c.caps(in)
	if second[0] <= 0.1*first[0] {
		t.Fatalf("cap collapsed despite smoothing: %v -> %v", first[0], second[0])
	}
}

func TestMigrationLatencyRespected(t *testing.T) {
	c := New(0.9, 7)
	cur := map[int]int{}
	for i := 0; i < 24; i++ {
		cur[i] = 0
	}
	in := buildInput(t, 24, cur)
	in.Constraint = 0.0001 // nothing can move
	p := c.Place(in)
	if len(p.Moves) != 0 {
		t.Fatalf("moves executed under an impossible budget: %d", len(p.Moves))
	}
	for i := 0; i < 24; i++ {
		if p.DCOf[i] != 0 {
			t.Fatalf("VM %d moved without a migration", i)
		}
	}
}

func TestNewVMsSeededNearPeers(t *testing.T) {
	c := New(0.9, 7)
	// Slot A: place VMs 0..9 (pairs).
	in := buildInput(t, 10, nil)
	c.Place(in)
	posBefore := c.Positions()
	peerPos, ok := posBefore[0]
	if !ok {
		t.Fatal("no position for VM 0")
	}
	// Slot B: VM 10 arrives talking to VM 0.
	in2 := buildInput(t, 11, nil)
	for id := 0; id < 10; id++ {
		in2.Current[id] = 0
	}
	in2.Volumes.Add(0, 10, 500*units.Megabyte)
	in2.Volumes.Add(10, 0, 500*units.Megabyte)
	c.Place(in2)
	got := c.Positions()[10]
	scatter := embed.InitialPosition(10, 10, c.Embed.Seed)
	if embed.Dist(got, peerPos) > embed.Dist(scatter, peerPos)+5 {
		t.Fatalf("new VM not seeded near its peer: got %v, peer at %v", got, peerPos)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() map[int]int {
		c := New(0.9, 11)
		in := buildInput(t, 30, nil)
		p1 := c.Place(in)
		cur := map[int]int{}
		for id, d := range p1.DCOf {
			cur[id] = d
		}
		in2 := buildInput(t, 30, cur)
		in2.Slot = 2
		return c.Place(in2).DCOf
	}
	a, b := run(), run()
	for id, d := range a {
		if b[id] != d {
			t.Fatalf("placement of %d diverged", id)
		}
	}
}

func TestNoEmbeddingStillPlaces(t *testing.T) {
	c := New(0.9, 7)
	c.NoEmbedding = true
	in := buildInput(t, 16, nil)
	p := c.Place(in)
	for _, id := range in.ActiveVMs {
		if _, ok := p.DCOf[id]; !ok {
			t.Fatalf("VM %d unplaced in no-embedding mode", id)
		}
	}
	if c.LastEmbedIters != 0 {
		t.Fatal("embedding ran despite NoEmbedding")
	}
}

func TestAllocateUsesCorrelationAwarePacker(t *testing.T) {
	c := New(0.9, 7)
	fleet := testFleet(t)
	ps := correlation.NewProfileSet(4)
	ps.Add(0, []float64{6, 1, 6, 1})
	ps.Add(1, []float64{1, 6, 1, 6})
	res := c.Allocate(fleet[0], []int{0, 1}, ps)
	if res.Active != 1 {
		t.Fatalf("anti-correlated pair split across %d servers", res.Active)
	}
}

func TestStatePersistsAcrossSlots(t *testing.T) {
	c := New(0.9, 7)
	in := buildInput(t, 12, nil)
	c.Place(in)
	if len(c.Positions()) != 12 {
		t.Fatalf("positions not retained: %d", len(c.Positions()))
	}
	// Departed VMs pruned on the next call.
	in2 := buildInput(t, 8, nil)
	in2.Slot = 2
	c.Place(in2)
	if len(c.Positions()) != 8 {
		t.Fatalf("departed VMs not pruned: %d", len(c.Positions()))
	}
}
