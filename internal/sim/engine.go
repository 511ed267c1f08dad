package sim

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/run"
	"repro/internal/stats"
)

// EngineRow reports one worker count of the round-engine benchmark.
type EngineRow struct {
	// Mode is the execution schedule; always "seeded" (worker-count
	// independent rounds, one at a time — the path every protocol runs).
	Mode           string  `json:"mode"`
	Workers        int     `json:"workers"`
	SecondsPerRnd  float64 `json:"seconds_per_round"`
	RequestsPerSec float64 `json:"requests_per_second"` // scattered offers+demands per wall second
	Fraction       float64 `json:"fraction"`            // arranged dates / m, averaged over rounds
	// Speedup compares against the workers = 1 row.
	Speedup float64 `json:"speedup_vs_serial"`
}

// EngineResult is the full round-engine benchmark: one row per distinct
// worker count, the workers = 1 baseline first. Points carries the generic
// Report-derived perf-trajectory records the BENCH_engine.json file
// collects (protocol "engine-seeded"; Messages is the number of requests
// scattered).
type EngineResult struct {
	N      int          `json:"n"`
	Rounds int          `json:"rounds"`
	Rows   []EngineRow  `json:"rows"`
	Points []BenchPoint `json:"points"`
}

// Table renders the benchmark in the repository's table shape.
func (r EngineResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Round engine — n=%d, %d rounds per point (uniform selection, unit bandwidth)", r.N, r.Rounds),
		"mode", "workers", "s/round", "req/s", "fraction", "speedup",
	)
	for _, row := range r.Rows {
		t.AddRow(
			row.Mode,
			fmt.Sprint(row.Workers),
			fmt.Sprintf("%.4f", row.SecondsPerRnd),
			fmt.Sprintf("%.3g", row.RequestsPerSec),
			fmt.Sprintf("%.4f", row.Fraction),
			fmt.Sprintf("%.2fx", row.Speedup),
		)
	}
	return t
}

// RunEngineScaled is the registry entry point for the engine benchmark:
// quick scale profiles n = 100k (3 rounds per point, 2/4 workers), paper
// scale the million-node profile (5 rounds per point, 2/4/8 workers).
func RunEngineScaled(scale Scale, seed uint64) (EngineResult, error) {
	if scale == ScalePaper {
		return RunEngineBench(1_000_000, 5, []int{2, 4, 8}, seed)
	}
	return RunEngineBench(100_000, 3, []int{2, 4}, seed)
}

// RunEngineBench profiles the dating-service round engine at a single
// large n: it times the seeded round (the path every protocol runs) at
// workers = 1 and at each requested worker count, on a homogeneous
// unit-bandwidth profile under uniform selection (the Figure 1 hot path).
// Every worker count runs the same round seeds, drawn off seed, and must
// arrange the same dates — the seeded path is worker-count independent —
// and every configuration validates its warm-up round against
// ValidateCapacities, so a performance run doubles as a safety and
// determinism check.
func RunEngineBench(n, rounds int, workerCounts []int, seed uint64) (EngineResult, error) {
	if n <= 0 || rounds <= 0 {
		return EngineResult{}, fmt.Errorf("sim: engine bench needs positive n and rounds (got n=%d rounds=%d)", n, rounds)
	}
	res := EngineResult{N: n, Rounds: rounds}

	seedStream := rng.New(seed)
	roundSeeds := make([]uint64, rounds)
	for r := range roundSeeds {
		roundSeeds[r] = seedStream.Uint64()
	}
	var refDates [][]core.Date
	serialSec := 0.0
	seen := map[int]bool{}
	for _, workers := range append([]int{1}, workerCounts...) {
		if workers < 1 || seen[workers] {
			continue
		}
		seen[workers] = true

		// Memory sampling brackets the whole configuration — Service
		// construction, warm-up, and timed rounds — so TotalAllocMB captures
		// the round scratch itself (the O(n + requests) claim), not just the
		// steady-state result slices. The GC keeps the heap comparable
		// across the worker-count iterations.
		runtime.GC()
		var memBefore, memAfter runtime.MemStats
		runtime.ReadMemStats(&memBefore)

		sel, err := core.NewUniformSelector(n)
		if err != nil {
			return EngineResult{}, err
		}
		svc, err := core.NewService(bandwidth.Homogeneous(n, 1), sel)
		if err != nil {
			return EngineResult{}, err
		}
		// Warm-up round: touches every scratch buffer so allocation cost
		// does not pollute the timing, and validates the safety property.
		first, err := svc.RunRoundSeeded(seed, workers, nil)
		if err != nil {
			return EngineResult{}, err
		}
		if err := core.ValidateCapacities(first, svc.Profile()); err != nil {
			return EngineResult{}, fmt.Errorf("sim: engine bench workers=%d: %w", workers, err)
		}

		dates := 0
		var roundDates [][]core.Date
		start := time.Now()
		for _, rs := range roundSeeds {
			out, err := svc.RunRoundSeeded(rs, workers, nil)
			if err != nil {
				return EngineResult{}, err
			}
			dates += len(out.Dates)
			roundDates = append(roundDates, out.Dates)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&memAfter)

		if refDates == nil {
			refDates = roundDates
		} else {
			for r := range roundDates {
				if !slices.Equal(roundDates[r], refDates[r]) {
					return EngineResult{}, fmt.Errorf(
						"sim: engine bench workers=%d: round %d diverged from workers=1", workers, r)
				}
			}
		}

		sec := elapsed.Seconds() / float64(rounds)
		if workers == 1 {
			serialSec = sec
		}
		row := EngineRow{
			Mode:           "seeded",
			Workers:        workers,
			SecondsPerRnd:  sec,
			RequestsPerSec: float64(2*n) / sec,
			Fraction:       float64(dates) / float64(rounds) / float64(n),
		}
		if serialSec > 0 && sec > 0 {
			row.Speedup = serialSec / sec
		}
		res.Rows = append(res.Rows, row)
		// The bench point rides the unified Report shape: the engine is not
		// a protocol, but its timed rounds fit the same record every other
		// BENCH writer emits. The memory columns ride alongside so the
		// O(n + requests) scratch claim stays visible in the trajectory.
		p := PointFromReport(n, run.Report{
			Protocol:  "engine-seeded",
			Rounds:    rounds,
			Completed: true,
			Messages:  int64(2*n) * int64(rounds),
			Wall:      elapsed,
			Seed:      seed,
			Workers:   workers,
		})
		p.SampleMem(&memBefore, &memAfter)
		res.Points = append(res.Points, p)
	}
	return res, nil
}
