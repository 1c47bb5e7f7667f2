// Command bench is geovmp's benchmark. It runs four workloads — three
// sweeps of the batch engine and one online-daemon traffic mix — and
// prints, for each, the end-to-end metrics a user sees and PASS/FAIL
// correctness checks. A traced run (-trace 1) prints the per-layer
// breakdown instead, timed at the boundaries of the program's public
// functions, and writes the spans it recorded.
//
// Run it from the repository root through run.sh, which builds it from
// source inside the checkout:
//
//	bash bench/run.sh                            # every workload, one child process each
//	bash bench/run.sh -workload paper-week -seed 7 -seconds 10 -trace 1
//	bash bench/run.sh -repeat 5 -out a.json      # seeds 42..46 of every workload into one file
//	bash bench/run.sh -compare a.json b.json     # verdict per workload x metric, bounds from BENCHMARK.json
//
// The last line of a single-workload run's standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed whose batch exports are pinned in expected.json.
const defaultSeed = 42

// workload is one named set of inputs with its load model.
type workload interface {
	name() string
	run(cfg runConfig) *report
}

// workloads lists every workload in the order the all-workloads mode runs
// them.
var workloads = []workload{paperWeek, dynamicFaulty, largeGlobal, serveOpen}

func findWorkload(name string) workload {
	for _, w := range workloads {
		if w.name() == name {
			return w
		}
	}
	return nil
}

// runConfig is what every workload run receives from the command line.
type runConfig struct {
	seed    uint64
	seconds time.Duration // measured time; set-up and checks come on top
	procs   int           // experiment Parallelism, open-loop senders, closed-loop callers
	tr      *tracer       // nil for the untraced run
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run in this process, or all to run each in a child process")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		traced  = flag.Int("trace", 0, "1 runs the traced variant: per-layer metrics, spans written to -spans")
		procs   = flag.Int("procs", runtime.NumCPU(), "experiment parallelism, open-loop senders and closed-loop callers")
		spans   = flag.String("spans", "", "span output of a traced run (default .bench_build/spans-<workload>.json)")
		repeat  = flag.Int("repeat", 0, "run every selected workload this many times, seeds seed, seed+1, ..., into -out")
		out     = flag.String("out", "bench-results.json", "results file written by -repeat")
		compare = flag.Bool("compare", false, "compare two -repeat results files given as arguments")
		bounds  = flag.String("bounds", "BENCHMARK.json", "benchmark definition holding the regression bounds for -compare")
	)
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fatalUsage("-trace must be 0 or 1")
	}
	if *procs < 1 || *seconds <= 0 {
		fatalUsage("-procs and -seconds must be positive")
	}
	if *name != "all" && findWorkload(*name) == nil {
		fatalUsage(fmt.Sprintf("unknown workload %q", *name))
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalUsage("-compare takes two results files")
		}
		os.Exit(runCompare(*bounds, flag.Arg(0), flag.Arg(1)))
	case *repeat > 0:
		os.Exit(runRepeat(*name, *seed, *repeat, *out, childArgs(*seconds, *traced, *procs)))
	case *name == "all":
		os.Exit(runAll(*seed, childArgs(*seconds, *traced, *procs)))
	}

	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), procs: *procs}
	if *traced == 1 {
		cfg.tr = newTracer()
	}
	w := findWorkload(*name)
	fmt.Printf("workload %s  seed %d  procs %d  seconds %g  trace %d\n", w.name(), cfg.seed, cfg.procs, *seconds, *traced)
	r := w.run(cfg)
	if cfg.tr != nil {
		path := *spans
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans-%s.json", w.name())
		}
		r.check("spans written to "+path, cfg.tr.write(path))
	}
	line, err := r.finish(os.Stdout, cfg.tr != nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if !r.correct() {
		os.Exit(1)
	}
}

func fatalUsage(msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	flag.Usage()
	os.Exit(2)
}

// childArgs are the flags every child run inherits.
func childArgs(seconds float64, traced, procs int) []string {
	return []string{
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(traced),
		"-procs", strconv.Itoa(procs),
	}
}

// runAll runs every workload once, each in its own child process so that
// one workload's heap and peak RSS never leak into another's numbers.
func runAll(seed uint64, args []string) int {
	code := 0
	for _, w := range workloads {
		if _, err := runChild(w.name(), seed, args); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name(), err)
			code = 1
		}
	}
	return code
}

// run is one child run as stored in a -repeat results file.
type run struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	result
}

// runRepeat runs the selected workloads n times each on consecutive seeds
// and writes every run into one results file for -compare.
func runRepeat(name string, seed uint64, n int, out string, args []string) int {
	var runs []run
	code := 0
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			if name != "all" && w.name() != name {
				continue
			}
			res, err := runChild(w.name(), seed+uint64(i), args)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name(), seed+uint64(i), err)
				code = 1
				continue
			}
			runs = append(runs, run{Workload: w.name(), Seed: seed + uint64(i), result: res})
		}
	}
	b, err := json.MarshalIndent(struct {
		Runs []run `json:"runs"`
	}{runs}, "", "  ")
	if err == nil {
		err = os.WriteFile(out, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: write results:", err)
		return 1
	}
	fmt.Printf("%d runs written to %s\n", len(runs), out)
	return code
}

// runChild runs one workload in a child process of this binary, echoing its
// output, and parses the result line it ends with.
func runChild(name string, seed uint64, args []string) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, append([]string{"-workload", name, "-seed", strconv.FormatUint(seed, 10)}, args...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return result{}, err
	}
	if err := cmd.Start(); err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		last = sc.Text()
		fmt.Println(last)
	}
	scanErr := sc.Err()
	// Drain what a failed scan left, so the child never blocks on a full pipe.
	_, _ = io.Copy(io.Discard, stdout)
	if err := cmd.Wait(); err != nil {
		return result{}, err
	}
	if scanErr != nil {
		return result{}, scanErr
	}
	var res result
	if err := json.NewDecoder(strings.NewReader(last)).Decode(&res); err != nil {
		return result{}, fmt.Errorf("parse result line: %w", err)
	}
	return res, nil
}
