// Command geovmpd runs the online placement daemon: it compiles one of
// the geo-distributed presets into a fleet + topology and serves the
// fit/score/reserve placement API over HTTP/JSON.
//
// Usage:
//
//	geovmpd [-addr :8437] [-preset geo5dc-dynamic] [-scale 0.05]
//	        [-seed 42] [-alpha 0.9] [-queue 256] [-slo 20ms]
//	        [-reconcile 512] [-workers 0]
//
// -alpha must lie in (0, 1]; any other value exits with status 2. The
// daemon's scoring and embedding tuning is fixed and has no flag.
//
// Endpoints:
//
//	POST /v1/place    {"id":1,"profile":[...],"flows":[...]} -> {"dc":...,"server":...}
//	POST /v1/depart   {"id":1}                               -> {"removed":true}
//	POST /v1/observe  {"slot":3,"vms":[...],"volumes":[...]} -> 204
//	POST /v1/drain                                            -> 200, then 503s
//	GET  /metrics     plain-text counter/gauge/histogram exposition
//	GET  /healthz     {"status":"ok","residents":...,"p99_ms":...}
//
// SIGINT/SIGTERM drains the daemon (in-flight decisions finish, new
// requests get 503) before the listener shuts down, so a rolling restart
// never drops an admitted placement.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"geovmp"
)

func main() {
	var (
		addr      = flag.String("addr", ":8437", "HTTP listen address")
		preset    = flag.String("preset", "geo5dc-dynamic", "scenario preset supplying fleet + topology")
		scale     = flag.Float64("scale", 0.05, "Table I fleet scale (1.0 = paper)")
		seed      = flag.Uint64("seed", 42, "seed for deterministic scatter and sampling")
		alpha     = flag.Float64("alpha", 0.9, "energy-performance weight (paper Eq. 5)")
		queue     = flag.Int("queue", 256, "admission queue bound (excess -> 429)")
		slo       = flag.Duration("slo", 20*time.Millisecond, "decision latency objective, reported at /healthz")
		reconcile = flag.Int("reconcile", 512, "ops between background re-embeddings (<0 disables)")
		workers   = flag.Int("workers", 0, "reconciler goroutines (0 = GOMAXPROCS)")
	)
	flag.Parse()
	// The daemon reads 0 as unset: refuse it rather than serve the default.
	if !(*alpha > 0 && *alpha <= 1) {
		fmt.Fprintf(os.Stderr, "geovmpd: -alpha %v: must lie in (0, 1]\n", *alpha)
		os.Exit(2)
	}

	spec, err := geovmp.Preset(*preset)
	if err != nil {
		log.Fatal(err)
	}
	spec.Scale = *scale
	spec.Seed = *seed
	sc, err := geovmp.NewScenario(spec)
	if err != nil {
		log.Fatal(err)
	}
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	d, err := geovmp.NewDaemon(sc, geovmp.DaemonOptions{
		Alpha:          *alpha,
		QueueCap:       *queue,
		SLO:            *slo,
		ReconcileEvery: *reconcile,
		Workers:        w,
	})
	if err != nil {
		log.Fatal(err)
	}

	srv := &http.Server{Addr: *addr, Handler: d.Handler()}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "draining...")
		d.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	servers := 0
	for _, site := range sc.Fleet {
		servers += site.Servers
	}
	log.Printf("geovmpd: serving %s (%d DCs, %d servers) on %s", sc.Name, len(sc.Fleet), servers, *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	log.Printf("geovmpd: drained after %d placements", d.NumResidents())
}
