// Command tracegen generates the synthetic workload and dumps it as CSV:
// per-VM metadata, 5-second utilization samples for selected VMs, and the
// directed inter-VM volume matrix of selected slots. It exists to inspect
// and plot the workload the simulator feeds the policies.
//
// Beyond inspection it is the trace-pipeline front door: -ingest-vms /
// -ingest-cpu stream a raw Azure/Google-style cluster trace in place of
// the synthetic generator, -replay exports whichever workload is active
// to a replay directory (vms.csv / profiles.csv / volumes.csv) that
// geovmp.LoadWorkload and the -tracedir experiment flag consume, and
// -templates fits k usage templates and writes them as JSON for
// geovmp.Spec.Templates.
//
// Usage:
//
//	tracegen [-vms 200] [-hours 24] [-seed 42] [-sample 8] [-out traces]
//	tracegen -replay replaydir [-samples 12] ...
//	tracegen -ingest-vms vms.csv -ingest-cpu cpu.csv [-cpu-scale 100] ...
//	tracegen -templates 4 ...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"geovmp/internal/atomicfile"
	"geovmp/internal/timeutil"
	"geovmp/internal/trace"
)

func main() {
	var (
		nVMs      = flag.Int("vms", 200, "initial VMs")
		hours     = flag.Int("hours", 24, "horizon in hours")
		seed      = flag.Uint64("seed", 42, "workload seed")
		sample    = flag.Int("sample", 8, "number of VMs to dump full utilization traces for")
		outDir    = flag.String("out", "traces", "output directory")
		replayDir = flag.String("replay", "", "also export the workload to this replay directory (LoadWorkload format)")
		samples   = flag.Int("samples", 12, "profile samples per slot for -replay, -ingest and -templates")
		ingestVMs = flag.String("ingest-vms", "", "ingest mode: VM lifetime CSV (requires -ingest-cpu)")
		ingestCPU = flag.String("ingest-cpu", "", "ingest mode: per-interval CPU utilization CSV")
		cpuScale  = flag.Float64("cpu-scale", 100, "divisor turning raw CPU readings into core fractions")
		templates = flag.Int("templates", 0, "fit this many usage templates and write templates.json")
	)
	flag.Parse()

	if (*ingestVMs == "") != (*ingestCPU == "") {
		fatal(fmt.Errorf("-ingest-vms and -ingest-cpu must be set together"))
	}

	var w trace.Source
	if *ingestVMs != "" {
		r, err := trace.IngestCluster(*ingestVMs, *ingestCPU, trace.IngestOptions{
			Samples:  *samples,
			CPUScale: *cpuScale,
		})
		if err != nil {
			fatal(err)
		}
		w = r
		fmt.Printf("ingested %d VMs over %d slots from %s + %s\n",
			r.NumVMs(), r.Slots(), *ingestVMs, *ingestCPU)
	} else {
		w = trace.New(trace.Config{
			Seed:       *seed,
			Horizon:    timeutil.Hours(*hours),
			InitialVMs: *nVMs,
		})
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	if *replayDir != "" {
		if err := trace.ExportReplay(w, *replayDir, w.Slots(), *samples); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote replay trace to %s (%d slots, %d samples/slot)\n",
			*replayDir, w.Slots(), *samples)
	}

	if *templates > 0 {
		ts := trace.FitTemplates(w, *templates, *samples)
		data, err := json.MarshalIndent(ts, "", "  ")
		if err != nil {
			fatal(err)
		}
		write(*outDir, "templates.json", string(data)+"\n")
		fmt.Printf("fitted %d usage templates -> %s/templates.json\n", len(ts), *outDir)
	}

	// VM metadata. The synthetic generator exposes class/service metadata;
	// replayed and ingested sources dump lifetimes and image sizes only.
	var b strings.Builder
	if gen, ok := w.(*trace.Workload); ok {
		b.WriteString("id,class,service,arrival_slot,depart_slot,image_gb\n")
		for id := 0; id < gen.NumVMs(); id++ {
			vm := gen.VM(id)
			fmt.Fprintf(&b, "%d,%s,%d,%d,%d,%.0f\n", vm.ID, vm.Class, vm.Service, vm.Arrival, vm.Depart, vm.Image.GB())
		}
	} else {
		b.WriteString("id,image_gb\n")
		for id := 0; id < w.NumVMs(); id++ {
			fmt.Fprintf(&b, "%d,%.0f\n", id, w.Image(id).GB())
		}
	}
	write(*outDir, "vms.csv", b.String())

	// Full 5 s utilization traces for the first -sample VMs.
	b.Reset()
	b.WriteString("step,seconds")
	n := *sample
	if n > w.NumVMs() {
		n = w.NumVMs()
	}
	for id := 0; id < n; id++ {
		fmt.Fprintf(&b, ",vm%d", id)
	}
	b.WriteString("\n")
	var steps []timeutil.Step
	for st := timeutil.Step(0); st < (timeutil.Horizon{Slots: w.Slots()}).Steps(); st += 12 { // one sample per minute
		steps = append(steps, st)
	}
	grid := trace.NewStepGrid(steps)
	util := make([][]float64, n)
	for id := range util {
		util[id] = make([]float64, grid.Len())
		trace.FillUtil(util[id], w, id, grid)
	}
	for k, st := range steps {
		fmt.Fprintf(&b, "%d,%.0f", st, st.Seconds())
		for id := range util {
			fmt.Fprintf(&b, ",%.4f", util[id][k])
		}
		b.WriteString("\n")
	}
	write(*outDir, "utilization.csv", b.String())

	// Volume matrices at three representative slots.
	b.Reset()
	b.WriteString("slot,from,to,megabytes\n")
	last := w.Slots() - 1
	for _, sl := range []timeutil.Slot{0, last / 2, last} {
		for _, e := range w.Volumes(sl) {
			fmt.Fprintf(&b, "%d,%d,%d,%.3f\n", sl, e.From, e.To, e.Vol.MB())
		}
	}
	write(*outDir, "volumes.csv", b.String())

	if gen, ok := w.(*trace.Workload); ok {
		fmt.Printf("workload: %d VMs, %d services over %d hours\n", gen.NumVMs(), gen.NumServices(), *hours)
	} else {
		fmt.Printf("workload: %d VMs over %d slots\n", w.NumVMs(), w.Slots())
	}
	fmt.Printf("wrote %s/vms.csv, utilization.csv, volumes.csv\n", *outDir)
}

func write(dir, name, data string) {
	if err := atomicfile.Write(filepath.Join(dir, name), []byte(data)); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
