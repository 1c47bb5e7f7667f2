package main

import (
	"context"
	"fmt"

	"geovmp"
	"geovmp/internal/report"
)

// column is one metric column of an ablation figure.
type column struct {
	header string
	format func(*geovmp.CellRow) string
}

func col(header, verb string, get func(*geovmp.CellRow) any) column {
	return column{header, func(r *geovmp.CellRow) string { return fmt.Sprintf(verb, get(r)) }}
}

// The metric columns the ablation figures share.
var (
	colCost      = col("cost (EUR)", "%.2f", func(r *geovmp.CellRow) any { return r.CostEUR })
	colEnergy    = col("energy (GJ)", "%.4f", func(r *geovmp.CellRow) any { return r.EnergyGJ })
	colWorstResp = col("worst resp (s)", "%.2f", func(r *geovmp.CellRow) any { return r.WorstRespS })
	colMeanResp  = col("mean resp (s)", "%.2f", func(r *geovmp.CellRow) any { return r.MeanRespS })
	colCrossDC   = col("cross-DC (GB)", "%.1f", func(r *geovmp.CellRow) any { return r.CrossGB })
	colMigs      = col("migrations", "%d", func(r *geovmp.CellRow) any { return r.Migrations })
	colRejected  = col("rejected", "%d", func(r *geovmp.CellRow) any { return r.MigRejected })
	colGrid      = col("grid (kWh)", "%.1f", func(r *geovmp.CellRow) any { return r.GridKWh })
	colPVUsed    = col("PV used (kWh)", "%.1f", func(r *geovmp.CellRow) any { return r.RenewableUsedKWh })
)

// ablation is one CLI ablation (A1-A7): a one-axis sweep printed and
// written as one figure with a row per axis value. The axis is either the
// scenarios in specs, under the proposed method, or — when policies is set
// — those policies on the single scenario in specs.
type ablation struct {
	exp       string // -exp value
	banner    string
	id, title string
	axis      string   // header of the label column
	labels    []string // one per row
	specs     []geovmp.Spec
	policies  []namedRef
	cols      []column
}

// run sweeps the ablation's grid and emits its figure.
func (a ablation) run(ctx context.Context) error {
	fmt.Println(a.banner)
	pols := geovmp.StandardPolicies(*alpha)[:1]
	if len(a.policies) > 0 {
		var err error
		if pols, err = refPolicies(a.policies); err != nil {
			return err
		}
	}
	set, err := sweep(ctx, geovmp.Experiment{Scenarios: a.specs, Policies: pols})
	if err != nil {
		return err
	}
	fig := &report.Figure{ID: a.id, Title: a.title, Headers: []string{a.axis}}
	for _, c := range a.cols {
		fig.Headers = append(fig.Headers, c.header)
	}
	for i, label := range a.labels {
		si, pi := i, 0
		if len(a.policies) > 0 {
			si, pi = 0, i
		}
		r := set.At(si, pi, 0).Export()
		row := []string{label}
		for _, c := range a.cols {
			row = append(row, c.format(&r))
		}
		fig.Rows = append(fig.Rows, row)
	}
	fmt.Print(fig.Render())
	return fig.WriteCSV(*outDir)
}

// ablations is the ablation table, A1-A7 in -exp all order, built from the
// parsed flags.
func ablations() []ablation {
	base := []geovmp.Spec{flagged(geovmp.Spec{Name: "paper-geo3dc"})}
	qualityCols := []column{colCost, colEnergy, colWorstResp, colMeanResp, colCrossDC}

	// A1: the Eq. 5 energy-performance weight, on the policy axis.
	alphaSweep := ablation{
		exp: "alpha", banner: "ablation A1: alpha sweep (energy-performance weighting)",
		id: "ablation-alpha", title: "Alpha sweep: Eq. 5 energy/performance weighting",
		axis: "alpha", specs: base, cols: qualityCols,
	}
	for _, a := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		alphaSweep.labels = append(alphaSweep.labels, fmt.Sprintf("%.1f", a))
		alphaSweep.policies = append(alphaSweep.policies, namedRef{fmt.Sprintf("alpha=%.1f", a),
			geovmp.PolicyRef{Kind: geovmp.PolicyKindProposed, Alpha: a}})
	}

	// A3: the migration latency constraint.
	qos := ablation{
		exp: "qos", banner: "ablation A3: migration QoS constraint sweep",
		id: "ablation-qos", title: "Migration QoS sweep (constraint = (1-QoS) x slot)",
		axis: "QoS", cols: []column{colCost, colWorstResp, colMigs, colRejected},
	}
	for _, q := range []float64{0.90, 0.95, 0.98, 0.995, 0.999} {
		qos.labels = append(qos.labels, fmt.Sprintf("%.3f", q))
		qos.specs = append(qos.specs, flagged(geovmp.Spec{Name: fmt.Sprintf("qos=%.3f", q), QoS: q}))
	}

	// A4: battery bank sizing.
	battery := ablation{
		exp: "battery", banner: "ablation A4: battery size scaling",
		id: "ablation-battery", title: "Battery capacity scaling x{~0, 0.5, 1, 2}",
		axis:   "battery scale",
		labels: []string{"~0", "0.5", "1.0", "2.0"},
		cols: []column{colCost, colGrid, colPVUsed,
			col("PV lost (kWh)", "%.1f", func(r *geovmp.CellRow) any { return r.RenewableLostKWh })},
	}
	for i, b := range []float64{geovmp.BatteryZero, 0.5, 1, 2} {
		battery.specs = append(battery.specs, flagged(geovmp.Spec{Name: "battery-x" + battery.labels[i], BatteryScale: b}))
	}

	// A5: renewable forecaster quality.
	forecast := ablation{
		exp: "forecast", banner: "ablation A5: renewable forecast quality",
		id: "ablation-forecast", title: "Forecaster quality: oracle vs WCMA vs EWMA vs last-value",
		axis:   "forecaster",
		labels: []string{"oracle", "wcma", "ewma", "last-value"},
		cols:   []column{colCost, colGrid, colPVUsed},
	}
	for i, k := range []geovmp.ForecastKind{geovmp.ForecastOracle, geovmp.ForecastWCMA, geovmp.ForecastEWMA, geovmp.ForecastLastValue} {
		forecast.specs = append(forecast.specs, flagged(geovmp.Spec{Name: "forecast-" + forecast.labels[i], Forecast: k}))
	}

	// A6: the geo5dc-dynamic workload (shifting class mix, waving
	// arrivals) under 1, 2, 4 and 8 re-optimization epochs. Epochs=1 is
	// the static placement going stale against the drifting regime; more
	// epochs buy re-convergence at the price of migration energy and
	// downtime, both charged into the metrics shown.
	epochs := ablation{
		exp: "epochs", banner: "ablation A6: rolling-horizon epoch count on the dynamic workload",
		id: "ablation-epochs", title: "Rolling-horizon epochs on geo5dc-dynamic",
		axis: "epochs",
		cols: []column{colCost, colEnergy, colWorstResp, colMigs, colRejected,
			col("mig energy (kWh)", "%.3f", func(r *geovmp.CellRow) any { return r.MigEnergyKWh }),
			col("downtime (s)", "%.1f", func(r *geovmp.CellRow) any { return r.MigDowntimeS })},
	}
	for _, n := range []int{1, 2, 4, 8} {
		spec := presetSpec("geo5dc-dynamic", fmt.Sprintf("epochs=%d", n))
		spec.Epochs = n
		// Explicit default charging so the epochs=1 row runs the engine too
		// (single epoch, no boundary re-optimization) and every row pays
		// for its moves — the comparison isolates the epoch count.
		spec.Migration = geovmp.MigrationBudget{
			EnergyPerGB: geovmp.DefaultMigEnergyPerGB,
			DowntimeSec: geovmp.DefaultMigDowntimeSec,
		}
		epochs.labels = append(epochs.labels, fmt.Sprintf("%d", n))
		epochs.specs = append(epochs.specs, spec)
	}

	// A7: durability schemes under the pinned geo5dc-faulty outage
	// schedule. The rows share the exact same world and incident sequence;
	// only the storage layer changes — no durable volumes, 2x replication,
	// and RS(2,2) erasure coding at the same 2.0x capacity overhead — so
	// the loss-probability and repair-traffic columns isolate what the
	// coding scheme buys.
	failures := ablation{
		exp: "failures", banner: "ablation A7: durability schemes under the reference outage schedule",
		id: "ablation-failures", title: "Durability under the geo5dc-faulty outage schedule",
		axis:   "storage",
		labels: []string{"none", "replicated x2", "erasure RS(2,2)"},
		cols: []column{
			col("data-loss prob", "%.4f", func(r *geovmp.CellRow) any { return r.DataLossProb }),
			col("repair (GB)", "%.1f", func(r *geovmp.CellRow) any { return r.RepairGB }),
			col("evacuations", "%d", func(r *geovmp.CellRow) any { return r.Evacuations }),
			col("stranded slots", "%d", func(r *geovmp.CellRow) any { return r.StrandedVMSlots }),
			colCost, colWorstResp},
	}
	for i, st := range []geovmp.StorageConfig{
		{},
		{Scheme: geovmp.StorageReplicated, Replicas: 2},
		{Scheme: geovmp.StorageErasure, K: 2, M: 2},
	} {
		spec := presetSpec("geo5dc-faulty", "faults-"+failures.labels[i])
		spec.Storage = st
		failures.specs = append(failures.specs, spec)
	}

	return []ablation{
		alphaSweep,
		{
			// A2: clustering without the force-directed plane.
			exp: "noembed", banner: "ablation A2: embedding on/off",
			id: "ablation-noembed", title: "Force-directed embedding on/off",
			axis: "variant", labels: []string{"with embedding", "no embedding"},
			specs: base, cols: qualityCols,
			policies: []namedRef{
				{"with embedding", geovmp.PolicyRef{Kind: geovmp.PolicyKindProposed, Alpha: *alpha}},
				{"no embedding", geovmp.PolicyRef{Kind: geovmp.PolicyKindProposed, Alpha: *alpha, NoEmbedding: true}},
			},
		},
		qos, battery, forecast, epochs, failures,
	}
}
