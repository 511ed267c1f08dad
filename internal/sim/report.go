package sim

// This file is the Report-consuming side of the unified runner: a generic
// BENCH_*.json point derived from any run.Report, and the "protocols"
// registry experiment that drives every protocol of the repository through
// run.Run — one entrypoint, one report shape, one table.

import (
	"fmt"
	"runtime"

	"repro/internal/bandwidth"
	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/run"
	"repro/internal/stats"
	"repro/internal/storage"
)

// BenchPoint is the generic perf-trajectory record the BENCH_*.json writers
// emit: every field is computed from a run.Report, so any protocol the
// unified runner can execute can be benchmarked without a bespoke writer.
//
// The two memory columns are sampled by the writers (SampleMem) around the
// whole configuration — scratch construction, warm-up, and timed rounds —
// rather than derived from the Report: PeakHeapSysMB is the runtime's heap
// high-water mark taken from the OS (the closest Go-visible proxy for peak
// RSS; monotonic over the process, so earlier configurations' peaks carry
// forward), and TotalAllocMB is the bytes the configuration allocated
// across all goroutines, scratch included. Together
// they make scratch-memory regressions — e.g. per-worker count arrays
// creeping back in — visible in the trajectory next to s/round. Zero means
// the writer did not sample memory.
type BenchPoint struct {
	Protocol          string  `json:"protocol"`
	N                 int     `json:"n"`
	Workers           int     `json:"workers"`
	Rounds            int     `json:"rounds"`
	Completed         bool    `json:"completed"`
	Seconds           float64 `json:"seconds"`
	SecondsPerRound   float64 `json:"seconds_per_round"`
	Messages          int64   `json:"messages"`
	MessagesPerSecond float64 `json:"messages_per_second"`
	Dropped           int64   `json:"dropped,omitempty"`
	Clamped           int64   `json:"clamped,omitempty"`
	PeakHeapSysMB     float64 `json:"peak_heap_sys_mb,omitempty"`
	TotalAllocMB      float64 `json:"total_alloc_mb,omitempty"`
}

// SampleMem fills the point's memory columns from two runtime.ReadMemStats
// samples taken before and after the timed section.
func (p *BenchPoint) SampleMem(before, after *runtime.MemStats) {
	const mb = 1 << 20
	p.PeakHeapSysMB = float64(after.HeapSys) / mb
	p.TotalAllocMB = float64(after.TotalAlloc-before.TotalAlloc) / mb
}

// PointFromReport derives the generic bench point of a run over n nodes.
func PointFromReport(n int, rep run.Report) BenchPoint {
	p := BenchPoint{
		Protocol:  rep.Protocol,
		N:         n,
		Workers:   rep.Workers,
		Rounds:    rep.Rounds,
		Completed: rep.Completed,
		Seconds:   rep.Wall.Seconds(),
		Messages:  rep.Messages,
		Dropped:   rep.Dropped,
		Clamped:   rep.Clamped,
	}
	if rep.Rounds > 0 {
		p.SecondsPerRound = p.Seconds / float64(rep.Rounds)
	}
	if p.Seconds > 0 {
		p.MessagesPerSecond = float64(rep.Messages) / p.Seconds
	}
	return p
}

// TrajectoryDigest folds a run's trajectory into an FNV-1a 64 hex digest.
// The trajectory is the deterministic heart of a report — a pure function of
// (spec, seed), independent of workers, engine and observers —
// so the digest is a compact bit-identity witness: two runs agree on it iff
// they spread identically round for round. datebench -digest prints it, and
// the CI instrumentation-identity smoke compares instrumented against
// uninstrumented runs with it (the full -json output carries wall times,
// which never reproduce).
func TrajectoryDigest(traj []int) string {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range traj {
		x := uint64(int64(v))
		for s := 0; s < 64; s += 8 {
			h ^= (x >> s) & 0xff
			h *= prime
		}
	}
	return fmt.Sprintf("%016x", h)
}

// ProtocolsRow is one protocol's unified report in the registry table.
type ProtocolsRow struct {
	Protocol   string
	N          int
	Rounds     int
	Completed  bool
	Messages   int64
	MaxInLoad  int
	MaxOutLoad int
	Seconds    float64
}

// ProtocolsResult is the outcome of the unified-runner experiment: every
// protocol of the repository executed through run.Run with the same root
// seed and worker budget, reported in the one Report shape.
type ProtocolsResult struct {
	Workers int
	Rows    []ProtocolsRow
}

// Table renders the sweep; only the timing column varies run to run.
func (r ProtocolsResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Unified runner — every protocol via run.Run(spec, WithSeed, WithWorkers(%d))", r.Workers),
		"protocol", "n", "rounds", "completed", "messages", "max in/out load", "seconds")
	for _, row := range r.Rows {
		loads := "—"
		if row.MaxInLoad > 0 || row.MaxOutLoad > 0 {
			loads = fmt.Sprintf("%d/%d", row.MaxInLoad, row.MaxOutLoad)
		}
		t.AddRow(
			row.Protocol,
			fmt.Sprint(row.N),
			fmt.Sprint(row.Rounds),
			fmt.Sprint(row.Completed),
			fmt.Sprint(row.Messages),
			loads,
			fmt.Sprintf("%.3f", row.Seconds),
		)
	}
	return t
}

// RunProtocols is the registry entry point for the unified-runner sweep:
// one run.Run per protocol — rumor, multi-rumor, live, monger, storage,
// handshake — sharing a root seed and a worker budget. Everything but the
// timing column is deterministic, and the budget is a pure speed knob.
func RunProtocols(scale Scale, seed uint64, workers int) (ProtocolsResult, error) {
	n := 256
	if scale == ScalePaper {
		n = 4096
	}
	specs := []struct {
		n    int
		spec run.Spec
	}{
		{n, gossip.Config{Algorithm: gossip.Dating, N: n}},
		{n, gossip.MultiRumorConfig{N: n, Injections: []gossip.Injection{
			{Round: 1, Source: 0}, {Round: 3, Source: n / 3}, {Round: 5, Source: 2 * n / 3},
		}}},
		{n, gossip.LiveConfig{Profile: bandwidth.Homogeneous(n, 1)}},
		{n / 2, coding.MongerConfig{N: n / 2, Blocks: 8, BlockSize: 32, PayloadSeed: seed}},
		{n / 2, storage.Config{N: n / 2, ObjectsPerNode: 2, Replicas: 3, SlotsPerNode: 12, RoundCap: 2}},
		{n, core.HandshakeConfig{Profile: bandwidth.Homogeneous(n, 1), Rounds: 10}},
	}
	res := ProtocolsResult{Workers: workers}
	for _, sp := range specs {
		rep, err := run.Run(sp.spec, run.WithSeed(seed), run.WithWorkers(workers))
		if err != nil {
			return ProtocolsResult{}, fmt.Errorf("sim: protocols %s: %w", sp.spec.Protocol(), err)
		}
		if !rep.Completed {
			return ProtocolsResult{}, fmt.Errorf("sim: protocols %s incomplete after %d rounds", rep.Protocol, rep.Rounds)
		}
		res.Rows = append(res.Rows, ProtocolsRow{
			Protocol:   rep.Protocol,
			N:          sp.n,
			Rounds:     rep.Rounds,
			Completed:  rep.Completed,
			Messages:   rep.Messages,
			MaxInLoad:  rep.MaxInLoad,
			MaxOutLoad: rep.MaxOutLoad,
			Seconds:    rep.Wall.Seconds(),
		})
	}
	return res, nil
}
