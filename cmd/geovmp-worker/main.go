// Command geovmp-worker joins a distributed sweep: it connects to a
// geovmp coordinator (cmd/experiments -coordinator, or any program using
// geovmp.NewCoordinator), leases grid cells, compiles each scenario's
// workload locally, evaluates the cell with the same engine code the
// in-process sweep uses, and streams the flattened row back. The merged
// ResultSet on the coordinator is byte-identical to a single-process run.
//
// Usage:
//
//	geovmp-worker -connect http://coordinator:8341
//	              [-name worker-a] [-par 0] [-q]
//
// The worker evaluates one cell at a time, funding each cell's intra-cell
// sharded passes with -par goroutines (0 = GOMAXPROCS); grid-level
// parallelism is however many workers connect. It survives a coordinator
// restart (polling until the coordinator returns) and exits cleanly when
// the coordinator reports the sweep finished, on Ctrl-C, or — with
// -idle-exit — once the coordinator has been unreachable for that long
// (the right setting for one-shot CI and batch jobs).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"geovmp"
)

var (
	connect  = flag.String("connect", "", "coordinator base URL (required), e.g. http://127.0.0.1:8341")
	name     = flag.String("name", "", "worker name in coordinator logs (default host-pid)")
	par      = flag.Int("par", 0, "intra-cell parallelism budget (0 = GOMAXPROCS)")
	poll     = flag.Duration("poll", 0, "idle re-poll fallback interval (0 = default 200ms)")
	idleExit = flag.Duration("idle-exit", 0, "exit cleanly once the coordinator has been unreachable this long (0 = poll forever, surviving coordinator restarts)")
	quiet    = flag.Bool("q", false, "suppress per-event log lines")
)

func main() {
	flag.Parse()
	if *connect == "" {
		fmt.Fprintln(os.Stderr, "geovmp-worker: -connect <coordinator URL> is required")
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	logf := log.New(os.Stderr, "", log.LstdFlags).Printf
	if *quiet {
		logf = nil
	}
	start := time.Now()
	err := geovmp.RunDistWorker(ctx, geovmp.DistWorkerConfig{
		Coordinator: *connect,
		Name:        *name,
		Parallelism: *par,
		Poll:        *poll,
		IdleExit:    *idleExit,
		Logf:        logf,
	})
	if err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "geovmp-worker:", err)
		os.Exit(1)
	}
	fmt.Printf("geovmp-worker: done after %s\n", time.Since(start).Round(time.Millisecond))
}
