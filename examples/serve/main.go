// Serving mode: replay the geo5dc-dynamic workload through the online
// placement daemon as a stream of observe/depart/place events, read the
// decision-latency percentiles off the daemon's metrics board, then score
// the same serving decision path inside the batch simulator to measure
// its cost drift against the offline Proposed controller — what switching
// from nightly batch placement to per-arrival serving costs.
//
//	go run ./examples/serve
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	"geovmp"
)

func main() {
	spec := geovmp.MustPreset("geo5dc-dynamic")
	spec.Scale = 0.02
	spec.Seed = 7
	spec.Horizon = geovmp.Days(1)
	spec.FineStepSec = 300
	sc, err := geovmp.NewScenario(spec)
	if err != nil {
		log.Fatal(err)
	}

	// Part 1 — latency under load: derive the daemon event log from the
	// workload (per slot: one telemetry observation, then departures, then
	// arrivals) and replay it at full request parallelism. Decisions are
	// sequenced, so the stream is deterministic regardless of workers.
	events := geovmp.EventsFromWorkload(sc.Workload, spec.Horizon, 12)
	d, err := geovmp.NewDaemon(sc, geovmp.DaemonOptions{})
	if err != nil {
		log.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0)
	decisions := d.Replay(events, workers)

	placed := 0
	for i, ev := range events {
		if ev.Kind == geovmp.EvPlace && decisions[i].Latency > 0 {
			placed++
		}
	}
	snap := d.Board().Snapshot()
	lat := snap.Hists["serve_decision_latency"]
	opt := d.Options()
	fmt.Printf("replayed %d events (%d placements, %d workers)\n", len(events), placed, workers)
	fmt.Printf("decision latency: p50 %.3f ms  p90 %.3f ms  p99 %.3f ms  max %.3f ms  (SLO %v)\n",
		lat.P50NS/1e6, lat.P90NS/1e6, lat.P99NS/1e6, float64(lat.MaxNS)/1e6, opt.SLO)
	fmt.Printf("overflows %d  reconciles %d  residents %d\n",
		snap.Counters["serve_overflows_total"], snap.Counters["serve_reconciles_total"], d.NumResidents())

	// Part 2 — cost drift vs the batch engine: drive a fresh daemon from
	// inside the simulator (ServePolicy adapts it to the per-slot Policy
	// interface) and compare against the offline Proposed controller on
	// the identical scenario. The daemon never migrates and decides per
	// arrival with local refinement only, so some drift is the price of
	// online serving; the reconciler keeps it bounded.
	d2, err := geovmp.NewDaemon(sc, geovmp.DaemonOptions{})
	if err != nil {
		log.Fatal(err)
	}
	set, err := geovmp.Experiment{
		Scenarios: []geovmp.Spec{spec},
		Policies: []geovmp.PolicySpec{
			geovmp.NewPolicySpec("Serve", func(uint64) geovmp.Policy { return geovmp.ServePolicy(d2) }),
			geovmp.NewPolicySpec("Proposed", func(seed uint64) geovmp.Policy { return geovmp.Proposed(0.9, seed) }),
		},
	}.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	serveR, batchR := set.At(0, 0, 0).Result, set.At(0, 1, 0).Result
	drift := (float64(serveR.OpCost) - float64(batchR.OpCost)) / float64(batchR.OpCost) * 100
	fmt.Printf("\noperational cost: serve %.2f EUR vs batch %.2f EUR (drift %+.1f%%)\n",
		float64(serveR.OpCost), float64(batchR.OpCost), drift)
	fmt.Printf("energy: serve %.4f GJ vs batch %.4f GJ; worst resp %.2f s vs %.2f s\n",
		serveR.TotalEnergy.GJ(), batchR.TotalEnergy.GJ(),
		serveR.RespSummary.Max(), batchR.RespSummary.Max())
}
