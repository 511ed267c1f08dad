package sim

import "repro/internal/stats"

// Experiment couples a runnable experiment with its name, so drivers (the
// hetsim CLI, tests) share one registry.
type Experiment struct {
	Name string
	// About is a one-line description shown in help output.
	About string
	// Run regenerates the experiment at a scale and root seed, fanning
	// repetitions across workers goroutines where the experiment supports
	// harness parallelism (see parallel.go); results are byte-identical
	// for every worker count. Experiments without repetition parallelism
	// accept the knob and run serially. The two benchmarks are special:
	// engine sweeps its own internal worker counts (the knob is ignored),
	// live feeds the knob to its runtime as the shard count — either way
	// only their timing columns vary run to run.
	Run func(scale Scale, seed uint64, workers int) (*stats.Table, error)
}

// parTabler adapts a workers-aware experiment to the registry signature.
func parTabler[T interface{ Table() *stats.Table }](f func(Scale, uint64, int) (T, error)) func(Scale, uint64, int) (*stats.Table, error) {
	return func(sc Scale, seed uint64, workers int) (*stats.Table, error) {
		res, err := f(sc, seed, workers)
		if err != nil {
			return nil, err
		}
		return res.Table(), nil
	}
}

// tabler adapts a serial experiment; the workers knob is accepted and
// ignored.
func tabler[T interface{ Table() *stats.Table }](f func(Scale, uint64) (T, error)) func(Scale, uint64, int) (*stats.Table, error) {
	return parTabler(func(sc Scale, seed uint64, _ int) (T, error) { return f(sc, seed) })
}

// Registry lists every experiment in DESIGN.md's per-experiment index, in
// presentation order, plus the round-engine throughput benchmark (not part
// of the paper's evaluation, but sharing the same driver interface).
func Registry() []Experiment {
	return []Experiment{
		{"figure1", "fraction of dates arranged (uniform vs DHT)", parTabler(RunFigure1Par)},
		{"figure2", "rounds to spread a rumor, all algorithms", parTabler(RunFigure2Par)},
		{"alpha", "E3: arranged fraction vs per-node load", tabler(RunAlphaVsLoad)},
		{"ablation", "E4: arranged fraction by selection distribution", tabler(RunDistributionAblation)},
		{"phases", "E5: Theorem 4 phase structure", tabler(RunPhases)},
		{"hierarchical", "E6: Theorem 10 rich-first delivery", tabler(RunHierarchical)},
		{"pipelining", "E7: pipelined dating over a DHT", tabler(RunPipelining)},
		{"mongering", "E8: network-coded multi-block broadcast", tabler(RunMongering)},
		{"churn", "E9: spreading under crashes", tabler(RunChurn)},
		{"storage", "E10: replicated storage block exchanges", parTabler(RunStoragePar)},
		{"multirumor", "E11: concurrent rumors share the dates", parTabler(RunMultiRumorExperimentPar)},
		{"loads", "E12: worst per-node loads (bandwidth honesty)", parTabler(RunLoadViolationPar)},
		{"dynamicdht", "E13: spreading over a churning DHT", parTabler(RunDynamicDHTPar)},
		{"engine", "seeded round-engine throughput vs worker count", tabler(RunEngineScaled)},
		{"live", "sharded message runtime: scale sweep + latency/loss sensitivity", parTabler(RunLiveScaled)},
		{"async", "sync-vs-async spread curves on exponential peer clocks", parTabler(RunAsyncCompare)},
		{"topology", "graph-constrained spreader/stifler spreading: final size vs alpha", parTabler(RunTopologySpread)},
		{"consensus", "conflicting-rumor consensus: rounds to 90% agreement vs K x seeding x merge rule", parTabler(RunConsensusSweep)},
		{"protocols", "every protocol via the unified run.Run entrypoint", parTabler(RunProtocols)},
	}
}
