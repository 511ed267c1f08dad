// Command datebench regenerates Figure 1 of the paper — the fraction of the
// centralized optimum the dating service arranges per round — and profiles
// the round engine and the live message runtime.
//
// Usage:
//
//	datebench [-mode figure1|engine|live|async|topology|consensus] [-scale quick|paper] [-seed N]
//	          [-par N] [-workers N] [-n N] [-rounds N] [-shards N]
//	          [-baseline] [-csv] [-json] [-digest]
//	          [-trace FILE] [-metrics] [-pprof ADDR]
//
// figure1 mode (the default) reproduces the paper's Figure 1. The paper
// scale runs n up to 100000 with 10^3–10^4 rounds per point and 200 DHT
// overlays; expect minutes of runtime. The quick scale preserves every
// qualitative conclusion in seconds. -par fans the per-overlay repetitions
// across N goroutines (default GOMAXPROCS); overlay seeds are derived from
// (seed, n, overlay), so the table is byte-identical for every -par value.
//
// engine mode times one seeded dating round — the path every protocol
// runs — at a fixed large n (default one million nodes) at 1, 2, 4, ...,
// -workers workers, reporting seconds per round, request throughput and
// speedup over one worker, and verifying every worker count arranges the
// same dates. -json emits the result as machine-readable JSON — including
// the generic Report-derived "points" records shared by every BENCH_*.json
// writer — so perf trajectory points can be recorded across versions:
//
//	datebench -mode engine -n 1000000 -rounds 5 -workers 8 -json > BENCH_engine.json
//
// live mode runs full message-level rumor spreading (every offer, answer
// and payload an actual routed message) to completion through the unified
// repro.Run entrypoint, on the sharded internal/live runtime at 1 and
// -shards workers, plus — with -baseline, the default — the legacy
// goroutine-per-peer engine. All runs derive per-peer randomness
// identically, so their informed-count trajectories must agree bit for
// bit; datebench exits non-zero if they do not, which makes every
// benchmark run a cross-engine correctness check (CI runs it at n=100k).
// -n defaults to 100000 in this mode; disable -baseline before raising n
// far beyond that, goroutine-per-peer does not scale.
//
//	datebench -mode live -n 100000 -shards 2 -json > BENCH_live.json
//
// async mode runs full asynchronous push&pull spreading — every peer firing
// on its own exponential clock, no global round barrier — on the clockless
// internal/async runtime at 1 and -shards workers. Randomness derives per
// (peer, firing-index), so the informed-count trajectories of every shard
// count must agree bit for bit; datebench exits non-zero if they do not.
// -n defaults to 100000 in this mode.
//
//	datebench -mode async -n 100000 -shards 2 -json > BENCH_async.json
//
// topology mode runs graph-constrained spreader/stifler spreading — a
// Barabási–Albert contact graph, stifling rate alpha=0.25 — on the sharded
// runtime at 1 and -shards workers. Transition randomness derives from
// per-peer streams consumed in canonical inbox order, so the trajectories of
// every shard count must agree bit for bit; datebench exits non-zero if they
// do not. -n defaults to 100000 in this mode.
//
//	datebench -mode topology -n 100000 -shards 2 -json > BENCH_topology.json
//
// consensus mode runs conflicting-rumor consensus — K=3 variants seeded at
// distinct random peers of a Barabási–Albert graph, merged under the
// latest-timestamp rule until 90% agreement — on the sharded runtime at 1
// and -shards workers. The identity check compares the full per-round
// variant-share history of every shard count; datebench exits non-zero on
// disagreement. -n defaults to 100000 in this mode.
//
//	datebench -mode consensus -n 100000 -shards 2 -json > BENCH_consensus.json
//
// # Observability
//
// -trace FILE attaches the deterministic instrumentation observer and
// writes a Chrome trace_event timeline — per-(round, shard, phase) spans
// plus gauge counter tracks — loadable in about:tracing or
// https://ui.perfetto.dev. -metrics prints the aggregated phase/gauge
// summary tables to stderr. -pprof ADDR serves net/http/pprof and expvar
// (including the live observer snapshot at /debug/vars) on ADDR for the
// duration of the run. Observation is read-only: results are bit-identical
// with and without these flags, a property -digest makes checkable — in
// live and async modes it prints only the run's trajectory digest, so CI
// compares instrumented and uninstrumented runs with a one-line cmp:
//
//	datebench -mode live -trace out.json -digest
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/sim"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	mode := flag.String("mode", "figure1", "what to run: figure1, engine, live, async, topology or consensus")
	scaleName := flag.String("scale", "quick", "experiment sizing: quick or paper (figure1 mode)")
	seed := flag.Uint64("seed", 42, "root random seed")
	par := flag.Int("par", runtime.GOMAXPROCS(0), "harness workers (figure1 mode; results identical for any value)")
	workers := flag.Int("workers", 4, "max parallel workers (engine mode)")
	n := flag.Int("n", 1_000_000, "node count (engine mode; live mode defaults to 100000)")
	rounds := flag.Int("rounds", 5, "timed rounds per worker count (engine mode)")
	shards := flag.Int("shards", 4, "sharded runtime workers (live and async modes; any value is bit-identical)")
	baseline := flag.Bool("baseline", true, "include the goroutine-per-peer engine (live mode)")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	jsonOut := flag.Bool("json", false, "emit JSON instead of a table")
	digest := flag.Bool("digest", false, "print only the trajectory digest (live and async modes)")
	tracePath := flag.String("trace", "", "write a Chrome trace_event timeline to this file (about:tracing / ui.perfetto.dev)")
	metrics := flag.Bool("metrics", false, "print instrumentation summary tables to stderr after the run")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	flag.Parse()

	// The bench harnesses construct their run options internally, so the
	// observer rides the process-wide default; that is sound because
	// observers are read-only and never alter a run.
	var observer *obs.Observer
	if *tracePath != "" || *metrics || *pprofAddr != "" {
		observer = obs.NewObserver()
		run.SetDefaultObserver(observer)
	}
	if *pprofAddr != "" {
		obs.Publish(observer)
		_, addr, err := obs.StartDebugServer(*pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "datebench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "datebench: pprof at http://%s/debug/pprof/, expvar at /debug/vars\n", addr)
	}
	// Export on every exit path — a trace of a failing run is the one you
	// want to look at.
	defer func() {
		if observer == nil {
			return
		}
		if *tracePath != "" {
			if err := observer.WriteTraceFile(*tracePath); err != nil {
				fmt.Fprintln(os.Stderr, "datebench:", err)
			}
		}
		if *metrics {
			fmt.Fprint(os.Stderr, observer.Summary())
		}
	}()

	switch *mode {
	case "figure1":
		scale, err := sim.ParseScale(*scaleName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		res, err := sim.RunFigure1Par(scale, *seed, *par)
		if err != nil {
			fmt.Fprintln(os.Stderr, "datebench:", err)
			return 1
		}
		switch {
		case *jsonOut:
			emitJSON("figure1", *seed, res)
		case *csv:
			fmt.Print(res.Table().CSV())
		default:
			fmt.Print(res.Table().Render())
			fmt.Println("\nPaper reference: uniform slightly above 0.47*n at all sizes;")
			fmt.Println("worst-of-200 DHTs above 0.52*n; best DHTs from 0.67*n (n=10)")
			fmt.Println("down to about 0.55*n at n=10^4.")
		}

	case "engine":
		var counts []int
		for w := 2; w <= *workers; w *= 2 {
			counts = append(counts, w)
		}
		if len(counts) == 0 || counts[len(counts)-1] != *workers {
			counts = append(counts, *workers)
		}
		res, err := sim.RunEngineBench(*n, *rounds, counts, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "datebench:", err)
			return 1
		}
		switch {
		case *jsonOut:
			emitJSON("engine", *seed, res)
		case *csv:
			fmt.Print(res.Table().CSV())
		default:
			fmt.Print(res.Table().Render())
		}

	case "async":
		asyncN := *n
		if !nFlagSet() {
			asyncN = 100_000
		}
		res, err := sim.RunAsyncBench(asyncN, *shards, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "datebench:", err)
			return 1
		}
		switch {
		case *digest:
			fmt.Println(res.TrajectoryDigest)
		case *jsonOut:
			emitJSON("async", *seed, res)
		case *csv:
			fmt.Print(res.Table().CSV())
		default:
			fmt.Print(res.Table().Render())
		}
		if !res.Identical {
			fmt.Fprintln(os.Stderr, "datebench: shard counts disagree on the async spreading trajectory — determinism regression")
			return 1
		}

	case "topology":
		topoN := *n
		if !nFlagSet() {
			topoN = 100_000
		}
		res, err := sim.RunTopologyBench(topoN, *shards, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "datebench:", err)
			return 1
		}
		switch {
		case *digest:
			fmt.Println(res.TrajectoryDigest)
		case *jsonOut:
			emitJSON("topology", *seed, res)
		case *csv:
			fmt.Print(res.Table().CSV())
		default:
			fmt.Print(res.Table().Render())
		}
		if !res.Identical {
			fmt.Fprintln(os.Stderr, "datebench: shard counts disagree on the topology spreading trajectory — determinism regression")
			return 1
		}

	case "consensus":
		consN := *n
		if !nFlagSet() {
			consN = 100_000
		}
		res, err := sim.RunConsensusBench(consN, *shards, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "datebench:", err)
			return 1
		}
		switch {
		case *digest:
			fmt.Println(res.ShareDigest)
		case *jsonOut:
			emitJSON("consensus", *seed, res)
		case *csv:
			fmt.Print(res.Table().CSV())
		default:
			fmt.Print(res.Table().Render())
		}
		if !res.Identical {
			fmt.Fprintln(os.Stderr, "datebench: shard counts disagree on the consensus share history — determinism regression")
			return 1
		}

	case "live":
		liveN := *n
		if !nFlagSet() {
			liveN = 100_000
		}
		res, err := sim.RunLiveBench(liveN, *shards, *baseline, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "datebench:", err)
			return 1
		}
		switch {
		case *digest:
			fmt.Println(res.TrajectoryDigest)
		case *jsonOut:
			emitJSON("live", *seed, res)
		case *csv:
			fmt.Print(res.Table().CSV())
		default:
			fmt.Print(res.Table().Render())
		}
		if !res.Identical {
			fmt.Fprintln(os.Stderr, "datebench: engines disagree on the spreading trajectory — determinism regression")
			return 1
		}

	default:
		fmt.Fprintf(os.Stderr, "datebench: unknown mode %q (want figure1, engine, live, async, topology or consensus)\n", *mode)
		return 2
	}
	return 0
}

// nFlagSet reports whether -n was given explicitly; the live and async
// modes default to a smaller n than engine mode when it was not.
func nFlagSet() bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "n" {
			set = true
		}
	})
	return set
}

// emitJSON wraps a result in a stable envelope so collected BENCH_*.json
// files identify themselves.
func emitJSON(experiment string, seed uint64, result any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{
		"experiment": experiment,
		"seed":       seed,
		"result":     result,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "datebench:", err)
		os.Exit(1)
	}
}
