package sim

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/bandwidth"
	"repro/internal/gossip"
	"repro/internal/live"
	"repro/internal/run"
	"repro/internal/stats"
)

// LiveRow reports one configuration of the live-runtime experiment.
type LiveRow struct {
	N            int     `json:"n"`
	Model        string  `json:"model"`
	Shards       int     `json:"shards"`
	DatingRounds int     `json:"dating_rounds"`
	Completed    bool    `json:"completed"`
	SecPerDating float64 `json:"seconds_per_dating_round"`
	MsgsPerSec   float64 `json:"messages_per_second"`
}

// LiveSweepResult is the live experiment of the registry: a scale sweep of
// full message-level spreading runs under the perfect-sync model, followed
// by a latency/loss/churn sensitivity table at a fixed n.
type LiveSweepResult struct {
	Rows []LiveRow `json:"rows"`
}

// Table renders the sweep in the repository's table shape.
func (r LiveSweepResult) Table() *stats.Table {
	t := stats.NewTable(
		"Live message runtime — full-spread scale sweep + network-model sensitivity (unit bandwidth)",
		"n", "model", "shards", "dating rounds", "completed", "s/dating round", "msg/s",
	)
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprint(row.N),
			row.Model,
			fmt.Sprint(row.Shards),
			fmt.Sprint(row.DatingRounds),
			fmt.Sprint(row.Completed),
			fmt.Sprintf("%.4f", row.SecPerDating),
			fmt.Sprintf("%.3g", row.MsgsPerSec),
		)
	}
	return t
}

// liveModel pairs a sensitivity-table row label with its network model.
type liveModel struct {
	name string
	net  live.NetModel
}

// liveModels is the sensitivity axis at peer count n: the paper-faithful
// synchronous network, then progressively more hostile conditions. Spread
// time should degrade gracefully, never collapse — the protocol is
// oblivious, so no message is load-bearing. The ring-latency row is the
// NetModel-asymmetry example: per-pair latency proportional to ring
// distance over a DHT-style embedding of the n peers, so a request's
// flight time depends on which rendezvous it happens to land on.
func liveModels(seed uint64, n int) []liveModel {
	return []liveModel{
		{"sync", nil},
		{"latency-2", live.FixedLatency{Rounds: 2}},
		{"latency-4", live.FixedLatency{Rounds: 4}},
		{"geom-p0.5", live.GeomLatency{P: 0.5, Cap: 8}},
		{"ring-latency", live.RingLatency{Pos: live.UniformRing(n, seed+2), Scale: 8, Max: 5}},
		{"loss-1%", live.Loss{P: 0.01}},
		{"loss-10%", live.Loss{P: 0.10}},
		{"churn-10%", live.EpochChurn{Seed: seed + 1, Epoch: 6, DownFrac: 0.10}},
	}
}

// RunLiveScaled is the registry entry point for the live-runtime
// experiment. Quick scale sweeps n up to 10^4 with a sensitivity table at
// n=2000 (seconds); paper scale sweeps n up to 10^6 with the sensitivity
// table at n=10^5 (minutes). The workers knob sets the runtime's shard
// count — the live runtime is bit-identical for every shard count, so
// workers only changes wall-clock time (the timing columns).
func RunLiveScaled(scale Scale, seed uint64, workers int) (LiveSweepResult, error) {
	ns := []int{1_000, 10_000}
	nSens := 2_000
	if scale == ScalePaper {
		ns = []int{10_000, 100_000, 1_000_000}
		nSens = 100_000
	}
	var res LiveSweepResult
	for _, n := range ns {
		row, err := runLiveRow(n, "sync", nil, workers, seed)
		if err != nil {
			return LiveSweepResult{}, err
		}
		res.Rows = append(res.Rows, row)
	}
	for _, m := range liveModels(seed, nSens) {
		row, err := runLiveRow(nSens, m.name, m.net, workers, seed)
		if err != nil {
			return LiveSweepResult{}, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// runLiveRow executes one full message-level spreading run through the
// unified runner and derives the row from its Report.
func runLiveRow(n int, model string, net live.NetModel, shards int, seed uint64) (LiveRow, error) {
	if shards < 1 {
		shards = runtime.GOMAXPROCS(0)
	}
	rep, err := run.Run(gossip.LiveConfig{Profile: bandwidth.Homogeneous(n, 1)},
		run.WithSeed(seed), run.WithWorkers(shards), run.WithNet(net))
	if err != nil {
		return LiveRow{}, fmt.Errorf("sim: live n=%d model=%s: %w", n, model, err)
	}
	p := PointFromReport(n, rep)
	return LiveRow{
		N:            n,
		Model:        model,
		Shards:       shards,
		DatingRounds: rep.Rounds,
		Completed:    rep.Completed,
		SecPerDating: p.SecondsPerRound,
		MsgsPerSec:   p.MessagesPerSecond,
	}, nil
}

// LiveBenchRow reports one engine configuration of the live benchmark.
type LiveBenchRow struct {
	Engine             string  `json:"engine"`
	Shards             int     `json:"shards"`
	DatingRounds       int     `json:"dating_rounds"`
	SecPerDating       float64 `json:"seconds_per_dating_round"`
	MsgsPerSec         float64 `json:"messages_per_second"`
	SpeedupVsGoroutine float64 `json:"speedup_vs_goroutine,omitempty"`
}

// LiveBenchResult is the cmd/datebench live mode: the sharded runtime at
// shard counts {1, shards} — plus the legacy goroutine-per-peer engine
// when baseline is set — spreading one rumor to every peer under the
// perfect-sync model. All runs share per-peer stream derivation, so their
// informed-count trajectories must be bit-identical; Identical reports
// that check (a cheap cross-engine smoke test on every benchmark run).
// Points carries the generic Report-derived perf-trajectory records the
// BENCH_live.json file collects.
type LiveBenchResult struct {
	N         int  `json:"n"`
	Identical bool `json:"identical_across_engines"`
	// TrajectoryDigest is the FNV-1a digest of the reference trajectory
	// (see TrajectoryDigest): a pure function of (n, seed), whatever the
	// engine, shard count or instrumentation.
	TrajectoryDigest string         `json:"trajectory_digest"`
	Rows             []LiveBenchRow `json:"rows"`
	Points           []BenchPoint   `json:"points"`
}

// Table renders the benchmark in the repository's table shape.
func (r LiveBenchResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Live engines — full spread, n=%d, perfect sync (identical trajectories: %v)", r.N, r.Identical),
		"engine", "shards", "dating rounds", "s/dating round", "msg/s", "speedup",
	)
	for _, row := range r.Rows {
		speedup := ""
		if row.SpeedupVsGoroutine > 0 {
			speedup = fmt.Sprintf("%.2fx", row.SpeedupVsGoroutine)
		}
		t.AddRow(
			row.Engine,
			fmt.Sprint(row.Shards),
			fmt.Sprint(row.DatingRounds),
			fmt.Sprintf("%.4f", row.SecPerDating),
			fmt.Sprintf("%.3g", row.MsgsPerSec),
			speedup,
		)
	}
	return t
}

// RunLiveBench profiles message-level spreading at a single n: the sharded
// runtime at 1 and shards workers, and optionally the legacy goroutine
// engine as the baseline the speedup column is relative to. Every run goes
// through the unified runner, and rows and bench points derive from its
// Report. It returns an error if any run fails; trajectory disagreement is
// reported in Identical, not as an error, so the caller decides whether it
// gates.
func RunLiveBench(n, shards int, baseline bool, seed uint64) (LiveBenchResult, error) {
	if n <= 0 {
		return LiveBenchResult{}, fmt.Errorf("sim: live bench needs positive n, got %d", n)
	}
	type runSpec struct {
		engine string
		shards int
		opts   []run.Option
	}
	specs := []runSpec{}
	shardCounts := []int{1}
	if shards > 1 {
		shardCounts = append(shardCounts, shards)
	}
	for _, sc := range shardCounts {
		specs = append(specs, runSpec{"sharded", sc,
			[]run.Option{run.WithSeed(seed), run.WithWorkers(sc), run.WithEngine(run.EngineSharded)}})
	}
	if baseline {
		specs = append(specs, runSpec{"goroutine", 0,
			[]run.Option{run.WithSeed(seed), run.WithEngine(run.EngineGoroutine)}})
	}

	res := LiveBenchResult{N: n, Identical: true}
	var ref []int
	var goroutineSec float64
	for i, spec := range specs {
		// The memory sample brackets run.Run entirely (runtime construction
		// included); the GC keeps the heap comparable across engines.
		runtime.GC()
		var memBefore, memAfter runtime.MemStats
		runtime.ReadMemStats(&memBefore)
		rep, err := run.Run(gossip.LiveConfig{Profile: bandwidth.Homogeneous(n, 1)}, spec.opts...)
		runtime.ReadMemStats(&memAfter)
		if err != nil {
			return LiveBenchResult{}, err
		}
		if !rep.Completed {
			return LiveBenchResult{}, fmt.Errorf("sim: live bench %s/%d incomplete after %d dating rounds",
				spec.engine, spec.shards, rep.Rounds)
		}
		if i == 0 {
			ref = rep.Trajectory
			res.TrajectoryDigest = TrajectoryDigest(ref)
		} else if !slices.Equal(rep.Trajectory, ref) {
			res.Identical = false
		}
		p := PointFromReport(n, rep)
		p.SampleMem(&memBefore, &memAfter)
		row := LiveBenchRow{
			Engine:       spec.engine,
			Shards:       spec.shards,
			DatingRounds: rep.Rounds,
			SecPerDating: p.SecondsPerRound,
			MsgsPerSec:   p.MessagesPerSecond,
		}
		if spec.engine == "goroutine" {
			goroutineSec = row.SecPerDating
		}
		res.Rows = append(res.Rows, row)
		res.Points = append(res.Points, p)
	}
	if goroutineSec > 0 {
		for i := range res.Rows {
			if res.Rows[i].SecPerDating > 0 {
				res.Rows[i].SpeedupVsGoroutine = goroutineSec / res.Rows[i].SecPerDating
			}
		}
	}
	return res, nil
}
