package config

import (
	"fmt"
	"math"
	"sort"

	"geovmp/internal/cooling"
	"geovmp/internal/fault"
	"geovmp/internal/network"
	"geovmp/internal/price"
	"geovmp/internal/solar"
	"geovmp/internal/storage"
	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

// Site describes one data center of a custom fleet. Servers, PVkWp and
// BattKWh are pre-scale values: Spec.Scale (and Spec.BatteryScale) apply on
// top, exactly as they do to Table I.
type Site struct {
	Name    string
	Servers int     // server count at Scale 1
	PVkWp   float64 // PV nameplate at Scale 1
	BattKWh float64 // battery capacity at Scale 1; <= 0 means battery-free

	// City selects one of the paper's tuned city models — "lisbon",
	// "zurich" or "helsinki" — for climate, PV geometry and tariff. When
	// empty, generic models are derived from the fields below.
	City string

	// Geography. Latitude drives the generic PV model; both coordinates
	// feed the auto-derived great-circle mesh topology.
	LatDeg, LonDeg float64
	UTCOffsetHours int

	// Generic-model knobs (ignored when City is set). Zero values select
	// the documented defaults.
	MeanTempC    float64 // mean ambient temperature (default 12 C)
	CloudMin     float64 // worst-case PV cloud transmission (default 0.4)
	PeakPrice    float64 // peak tariff, EUR/kWh (default 0.22)
	OffPeakPrice float64 // off-peak tariff, EUR/kWh (default PeakPrice/2)
}

func (s *Site) applyDefaults() {
	if s.MeanTempC == 0 {
		s.MeanTempC = 12
	}
	if s.CloudMin == 0 {
		s.CloudMin = 0.4
	}
	if s.PeakPrice == 0 {
		s.PeakPrice = 0.22
	}
	if s.OffPeakPrice == 0 {
		s.OffPeakPrice = s.PeakPrice / 2
	}
}

// models returns the climate, PV plant and tariff for the site: the paper's
// tuned city presets when City names one, generic parameterized models
// otherwise. The plant's Peak is overwritten by the caller.
func (s Site) models() (cooling.Climate, solar.Plant, price.Tariff) {
	switch s.City {
	case "lisbon":
		return cooling.Lisbon(), solar.LisbonPlant(), price.LisbonTariff()
	case "zurich":
		return cooling.Zurich(), solar.ZurichPlant(), price.ZurichTariff()
	case "helsinki":
		return cooling.Helsinki(), solar.HelsinkiPlant(), price.HelsinkiTariff()
	}
	zone := timeutil.Zone(s.UTCOffsetHours)
	seed := nameSeed(s.Name)
	climate := cooling.Climate{
		Name: s.Name, Zone: zone,
		MeanC: s.MeanTempC, DiurnalC: 5, WeatherC: 3,
		NoiseSeed: seed,
	}
	plant := solar.Plant{
		Name: s.Name, Zone: zone,
		LatitudeD: s.LatDeg, DayOfYear: 105,
		CloudMin: s.CloudMin, NoiseSeed: seed + 1,
	}
	tariff := price.Tariff{
		Name: s.Name, Zone: zone,
		Peak: units.Price(s.PeakPrice), OffPeak: units.Price(s.OffPeakPrice),
		PeakStart: 8, PeakEnd: 21,
	}
	return climate, plant, tariff
}

// nameSeed hashes a site name into a noise-stream seed (FNV-1a).
func nameSeed(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// TableISites returns the paper's Table I fleet as a customizable site
// list: the starting point for variants that add, drop or resize DCs.
func TableISites() []Site {
	return []Site{
		{Name: "DC1-Lisbon", Servers: 1500, PVkWp: 150, BattKWh: 960,
			City: "lisbon", LatDeg: 38.72, LonDeg: -9.14, UTCOffsetHours: 0},
		{Name: "DC2-Zurich", Servers: 1000, PVkWp: 100, BattKWh: 720,
			City: "zurich", LatDeg: 47.37, LonDeg: 8.54, UTCOffsetHours: 1},
		{Name: "DC3-Helsinki", Servers: 500, PVkWp: 50, BattKWh: 480,
			City: "helsinki", LatDeg: 60.17, LonDeg: 24.94, UTCOffsetHours: 2},
	}
}

// geo5dcSites extends Table I with two additional European sites, keeping
// the paper's three tuned cities untouched.
func geo5dcSites() []Site {
	sites := TableISites()
	return append(sites,
		Site{Name: "DC4-Dublin", Servers: 800, PVkWp: 80, BattKWh: 600,
			LatDeg: 53.35, LonDeg: -6.26, UTCOffsetHours: 0, MeanTempC: 9, CloudMin: 0.3,
			PeakPrice: 0.20, OffPeakPrice: 0.10},
		Site{Name: "DC5-Milan", Servers: 700, PVkWp: 120, BattKWh: 640,
			LatDeg: 45.46, LonDeg: 9.19, UTCOffsetHours: 1, MeanTempC: 15, CloudMin: 0.5,
			PeakPrice: 0.25, OffPeakPrice: 0.14},
	)
}

// MeshTopology derives a full-mesh topology from a site list: great-circle
// distances from the sites' coordinates, with the paper's link speeds
// (10 Gb/s storage uplinks, 100 Gb/s intranet fabric and backbone) and BER
// distribution.
func MeshTopology(sites []Site) *network.Topology {
	n := len(sites)
	t := &network.Topology{
		N:         n,
		DistanceM: make([][]float64, n),
		LocalBW:   make([]units.Bandwidth, n),
		IntraBW:   make([]units.Bandwidth, n),
		Backbone:  100 * units.GigabitPerSecond,
		BER:       network.PaperBER(),
	}
	for i := range sites {
		t.DistanceM[i] = make([]float64, n)
		t.LocalBW[i] = 10 * units.GigabitPerSecond
		t.IntraBW[i] = 100 * units.GigabitPerSecond
		for j := range sites {
			if i != j {
				t.DistanceM[i][j] = haversineM(sites[i].LatDeg, sites[i].LonDeg, sites[j].LatDeg, sites[j].LonDeg)
			}
		}
	}
	return t
}

// haversineM returns the great-circle distance between two coordinates in
// meters (mean Earth radius).
func haversineM(lat1, lon1, lat2, lon2 float64) float64 {
	const r = 6371e3
	rad := math.Pi / 180
	dLat := (lat2 - lat1) * rad
	dLon := (lon2 - lon1) * rad
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1*rad)*math.Cos(lat2*rad)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * r * math.Asin(math.Min(1, math.Sqrt(a)))
}

// ReferenceFaults is the pinned outage schedule of the geo5dc-faulty
// preset, shared by the failure ablation and the acceptance tests so
// every storage scheme faces the identical incident: a three-hour
// whole-DC outage at Milan, degraded server fleets at the four
// surviving sites for the surrounding eight hours, a Lisbon→Helsinki
// link brown-out and a Lisbon PV dropout — plus mild stochastic
// background failure rates for longer horizons. The explicit windows
// start after the default six warmup slots so short measured runs see
// them.
func ReferenceFaults() fault.Config {
	return fault.Config{
		Outages: []fault.Outage{
			{Kind: fault.KindDC, DC: 4, Start: 6, Slots: 3},
			{Kind: fault.KindServer, DC: 0, Start: 5, Slots: 8, Frac: 0.20},
			{Kind: fault.KindServer, DC: 1, Start: 5, Slots: 8, Frac: 0.25},
			{Kind: fault.KindServer, DC: 2, Start: 5, Slots: 8, Frac: 0.20},
			{Kind: fault.KindServer, DC: 3, Start: 5, Slots: 8, Frac: 0.15},
			{Kind: fault.KindLink, DC: 0, To: 2, Start: 7, Slots: 2, Frac: 0.05},
			{Kind: fault.KindPV, DC: 0, Start: 8, Slots: 4, Frac: 1},
		},
		ServerFailRatePerDay: 0.3,
		LinkFailRatePerDay:   0.1,
		PVDropRatePerDay:     0.2,
		MeanRepairSlots:      3,
	}
}

// presetBuilders registers the named scenario presets.
var presetBuilders = map[string]func() Spec{
	// The paper's Sect. V world: Table I fleet, WCMA forecasting, one week.
	"paper-geo3dc": func() Spec { return Spec{Name: "paper-geo3dc"} },
	// Table I with the batteries removed — the A4 ablation end point.
	"paper-geo3dc-nobattery": func() Spec {
		return Spec{Name: "paper-geo3dc-nobattery", BatteryScale: BatteryZero}
	},
	// A five-site European fleet: Table I plus Dublin and Milan, with a
	// great-circle mesh backbone.
	"geo5dc": func() Spec { return Spec{Name: "geo5dc", Sites: geo5dcSites()} },
	// The five-site fleet at 40% of full scale — 1800 servers, ~12600
	// initial VMs: the paper-scale stress preset the global-phase
	// benchmarks and the intra-cell sharding target. Pair it with a short
	// horizon (the Spec default is still the full week) unless you mean to
	// wait.
	"geo5dc-large": func() Spec {
		return Spec{Name: "geo5dc-large", Sites: geo5dcSites(), Scale: 0.4}
	},
	// Table I under a diurnal rolling horizon: one epoch per day, arrivals
	// waving with the afternoon peak, and the class mix alternating between
	// interactive-heavy weekday-like days and batch/HPC-heavy off days —
	// the regime drift a static placement slowly goes stale against.
	"geo3dc-diurnal": func() Spec {
		return Spec{
			Name:              "geo3dc-diurnal",
			Epochs:            7,
			ArrivalWave:       0.35,
			EpochClassWeights: diurnalWeights(7),
		}
	},
	// The five-site dynamic fleet under the reference incident schedule
	// (ReferenceFaults) with erasure-coded RS(2,2) volumes — the
	// fault-and-durability subsystem's evaluation scenario: forced
	// evacuations, stranded-VM downtime, repair traffic competing with
	// user traffic, and a data-loss-risk signal the storage ablation
	// compares across schemes.
	"geo5dc-faulty": func() Spec {
		return Spec{
			Name:              "geo5dc-faulty",
			Sites:             geo5dcSites(),
			Epochs:            4,
			ArrivalWave:       0.3,
			EpochClassWeights: dynamicMixWeights(),
			Faults:            ReferenceFaults(),
			Storage:           storage.Config{Scheme: storage.SchemeErasure, K: 2, M: 2},
		}
	},
	// The five-site fleet under a four-regime dynamic workload: the class
	// mix walks from websearch-heavy through mapreduce- and HPC-heavy to
	// batch-heavy across the week's four epochs, with waving arrivals —
	// the rolling-horizon engine's primary evaluation scenario.
	"geo5dc-dynamic": func() Spec {
		return Spec{
			Name:              "geo5dc-dynamic",
			Sites:             geo5dcSites(),
			Epochs:            4,
			ArrivalWave:       0.3,
			EpochClassWeights: dynamicMixWeights(),
		}
	},
}

// dynamicMixWeights is the four-regime class-mix walk shared by the
// geo5dc-dynamic and geo5dc-faulty presets.
func dynamicMixWeights() [][]float64 {
	return [][]float64{
		{0.55, 0.20, 0.15, 0.10}, // interactive-heavy
		{0.25, 0.45, 0.15, 0.15}, // mapreduce-heavy
		{0.15, 0.20, 0.50, 0.15}, // hpc-heavy
		{0.15, 0.15, 0.15, 0.55}, // batch-heavy
	}
}

// diurnalWeights builds the geo3dc-diurnal mix schedule: odd days lean
// interactive (websearch/mapreduce), even days lean batch/HPC.
func diurnalWeights(days int) [][]float64 {
	rows := make([][]float64, days)
	for d := range rows {
		if d%2 == 0 {
			rows[d] = []float64{0.50, 0.25, 0.15, 0.10}
		} else {
			rows[d] = []float64{0.20, 0.20, 0.25, 0.35}
		}
	}
	return rows
}

// Preset returns the named scenario spec. Callers may further customize the
// returned Spec (it is a value).
func Preset(name string) (Spec, error) {
	b, ok := presetBuilders[name]
	if !ok {
		return Spec{}, fmt.Errorf("config: unknown preset %q (have %v)", name, PresetNames())
	}
	return b(), nil
}

// PresetNames lists the registered presets in sorted order.
func PresetNames() []string {
	names := make([]string, 0, len(presetBuilders))
	for n := range presetBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
