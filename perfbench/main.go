// Command perfbench is the repository's benchmark: a closed-loop batch
// driver that runs one spread at a time through repro.Run and checks every
// outcome.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it spreads --seconds over several fresh measuring
// processes, one after another (itself, re-executed with --child). Each
// builds the workload's inputs a few times (setup_s), then times complete
// repro.Run calls with tracing off. It prints the end-to-end metrics.
//
// With --trace 1 it makes the traced run instead: the benchmark's own spans
// around the calls into each layer, the runtime's phase spans through
// repro.WithObserver, a workers=1 baseline and the phase-accounting
// self-check. It prints the per-layer metrics and writes the spans under
// --out at the end.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
//
// where failed counts runs that returned an error, did not complete, or
// failed a correctness check; failed/attempted is the failure fraction.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// workers is the benchmark's worker budget (WithWorkers).
const workers = 2

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed runs; a failure is reported on stderr
// and never aborts the benchmark.
type tally struct {
	attempted, failed int
}

func (t *tally) add(what string, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %v\n", what, err)
		return false
	}
	return true
}

func main() {
	if err := realMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func realMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, 1: traced run with per-layer metrics")
	n := fs.Int("n", 0, "override the workload size (0 = the benchmark size)")
	out := fs.String("out", ".bench_build/spans", "directory the traced run writes its spans to")
	child := fs.Bool("child", false, "be one measuring process of an untraced run (internal)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n > 0 {
		// Every workload the run touches (the traced run measures some
		// layers on another workload's inputs) takes the override.
		for i := range workloads {
			workloads[i].n = *n
		}
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if *child {
		rep, err := measureChild(w, *seed, *seconds)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(rep)
	}
	prov := provenanceOf(w, *seed)
	fmt.Println("provenance", prov.json())

	var res result
	switch *trace {
	case 0:
		res, err = measure(w, *seed, *seconds)
	case 1:
		res, err = traced(w, *seed, *out)
	default:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
