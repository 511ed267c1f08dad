package repro_test

// One benchmark per figure and experiment of the evaluation (see DESIGN.md's
// per-experiment index), plus micro-benchmarks of the core primitives.
//
// The figure benches regenerate the paper's rows at quick scale, report the
// headline numbers via b.ReportMetric (so they appear on the benchmark line),
// and log the full table (visible with `go test -bench . -v`). Use
// cmd/datebench, cmd/rumorbench and cmd/hetsim for paper-scale runs and CSV.

import (
	"fmt"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/overlay"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// --- Figure 1: fraction of dates arranged ---------------------------------

func BenchmarkFigure1_DatesFraction(b *testing.B) {
	var last sim.Figure1Result
	for i := 0; i < b.N; i++ {
		res, err := sim.RunFigure1(sim.ScaleQuick, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.Log("\n" + last.Table().Render())
	row := last.Rows[len(last.Rows)-1]
	b.ReportMetric(row.UniformMean, "uniform_frac")
	b.ReportMetric(row.DHTWorst, "dht_worst_frac")
	b.ReportMetric(row.DHTBest, "dht_best_frac")
}

// --- Figure 2: rounds to spread a single rumor ----------------------------

func BenchmarkFigure2_RumorRounds(b *testing.B) {
	var last sim.Figure2Result
	for i := 0; i < b.N; i++ {
		res, err := sim.RunFigure2(sim.ScaleQuick, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.Log("\n" + last.Table().Render())
	row := last.Rows[len(last.Rows)-1]
	b.ReportMetric(row.Cells[gossip.PushPull].Mean, "pushpull_rounds")
	b.ReportMetric(row.Cells[gossip.Push].Mean, "push_rounds")
	b.ReportMetric(row.Cells[gossip.Dating].Mean, "dating_rounds")
}

// --- E3: fraction versus load ---------------------------------------------

func BenchmarkAlphaVsLoad(b *testing.B) {
	var last sim.AlphaResult
	for i := 0; i < b.N; i++ {
		res, err := sim.RunAlphaVsLoad(sim.ScaleQuick, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.Log("\n" + last.Table().Render())
	b.ReportMetric(last.Rows[0].Fraction, "frac_at_load1")
	b.ReportMetric(last.Rows[len(last.Rows)-1].Fraction, "frac_at_load8")
}

// --- E4: selection-distribution ablation ----------------------------------

func BenchmarkDistributionAblation(b *testing.B) {
	var last sim.DistResult
	for i := 0; i < b.N; i++ {
		res, err := sim.RunDistributionAblation(sim.ScaleQuick, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.Log("\n" + last.Table().Render())
	for _, row := range last.Rows {
		switch row.Name {
		case "uniform":
			b.ReportMetric(row.Fraction, "uniform_frac")
		case "dht-intervals":
			b.ReportMetric(row.Fraction, "dht_frac")
		case "hub-half":
			b.ReportMetric(row.Fraction, "hub_frac")
		}
	}
}

// --- E5: Theorem 4 phase structure ----------------------------------------

func BenchmarkPhases(b *testing.B) {
	var last sim.PhasesResult
	for i := 0; i < b.N; i++ {
		res, err := sim.RunPhases(sim.ScaleQuick, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.Log("\n" + last.Table().Render())
	b.ReportMetric(last.EndPhase1, "phase1_end_round")
	b.ReportMetric(last.EndPhase2, "phase2_end_round")
	b.ReportMetric(last.EndPhase3, "phase3_end_round")
}

// --- E6: hierarchical content distribution (Theorem 10) -------------------

func BenchmarkHierarchical(b *testing.B) {
	var last sim.HierResult
	for i := 0; i < b.N; i++ {
		res, err := sim.RunHierarchical(sim.ScaleQuick, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.Log("\n" + last.Table().Render())
	row := last.Rows[len(last.Rows)-1]
	b.ReportMetric(row.RichRounds, "rich_rounds")
	b.ReportMetric(row.TotalRounds, "total_rounds")
}

// --- E7: pipelining over the DHT ------------------------------------------

func BenchmarkPipelining(b *testing.B) {
	var last sim.PipelineResult
	for i := 0; i < b.N; i++ {
		res, err := sim.RunPipelining(sim.ScaleQuick, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.Log("\n" + last.Table().Render())
	lastRow := last.Rows[len(last.Rows)-1]
	b.ReportMetric(last.ChordHops, "chord_hops")
	b.ReportMetric(last.CDHops, "cd_hops")
	b.ReportMetric(float64(lastRow.Naive)/float64(lastRow.Pipelined), "k64_speedup")
}

// --- E8: network-coded rumor mongering -------------------------------------

func BenchmarkMongering(b *testing.B) {
	var last sim.MongerResult
	for i := 0; i < b.N; i++ {
		res, err := sim.RunMongering(sim.ScaleQuick, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.Log("\n" + last.Table().Render())
	for _, row := range last.Rows {
		if row.Blocks == 32 {
			b.ReportMetric(row.Rounds, "rounds_B32")
			b.ReportMetric(row.Rounds/float64(row.LowerBound), "overhead_vs_bound")
		}
	}
}

// --- E9: spreading under churn ---------------------------------------------

func BenchmarkChurn(b *testing.B) {
	var last sim.ChurnResult
	for i := 0; i < b.N; i++ {
		res, err := sim.RunChurn(sim.ScaleQuick, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.Log("\n" + last.Table().Render())
	for _, row := range last.Rows {
		if row.CrashProb == 0.05 {
			b.ReportMetric(row.Rounds, "rounds_p05")
			b.ReportMetric(float64(row.Completed)/float64(row.Reps), "completion_rate_p05")
		}
	}
}

// --- E10: replicated storage -----------------------------------------------

func BenchmarkStorage(b *testing.B) {
	var last sim.StorageResult
	for i := 0; i < b.N; i++ {
		res, err := sim.RunStorage(sim.ScaleQuick, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.Log("\n" + last.Table().Render())
	b.ReportMetric(last.Rounds, "rounds")
	b.ReportMetric(last.MaxOccupancy-last.MinOccupancy, "occupancy_spread")
}

// --- E11: concurrent rumors -------------------------------------------------

func BenchmarkMultiRumor(b *testing.B) {
	var last sim.MultiRumorSimResult
	for i := 0; i < b.N; i++ {
		res, err := sim.RunMultiRumorExperiment(sim.ScaleQuick, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.Log("\n" + last.Table().Render())
	row := last.Rows[len(last.Rows)-1]
	b.ReportMetric(row.Rounds, "rounds_R8")
	b.ReportMetric(last.SingleRounds*float64(row.Rumors)/row.Rounds, "speedup_vs_sequential")
}

// --- E12: bandwidth honesty --------------------------------------------------

func BenchmarkLoadViolation(b *testing.B) {
	var last sim.LoadResult
	for i := 0; i < b.N; i++ {
		res, err := sim.RunLoadViolation(sim.ScaleQuick, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.Log("\n" + last.Table().Render())
	for _, row := range last.Rows {
		switch row.Algorithm {
		case gossip.Dating:
			b.ReportMetric(row.MaxInLoad, "dating_max_in")
		case gossip.Push:
			b.ReportMetric(row.MaxInLoad, "push_max_in")
		case gossip.Pull:
			b.ReportMetric(row.MaxOutLoad, "pull_max_out")
		}
	}
}

// --- E13: churning DHT --------------------------------------------------------

func BenchmarkDynamicDHT(b *testing.B) {
	var last sim.DynamicResult
	for i := 0; i < b.N; i++ {
		res, err := sim.RunDynamicDHT(sim.ScaleQuick, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.Log("\n" + last.Table().Render())
	for _, row := range last.Rows {
		if row.ReplaceProb == 0.02 {
			b.ReportMetric(row.SteadyState, "steady_coverage_p02")
			b.ReportMetric(row.RoundsTo95, "rounds_to_95_p02")
		}
	}
}

// --- Micro-benchmarks of the primitives ------------------------------------

func benchDatingRound(b *testing.B, n int, sel core.Selector) {
	b.Helper()
	svc, err := core.NewService(bandwidth.Homogeneous(n, 1), sel)
	if err != nil {
		b.Fatal(err)
	}
	s := rng.New(1)
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += len(svc.RunRound(s).Dates)
	}
	b.ReportMetric(float64(total)/float64(b.N)/float64(n), "frac")
}

func BenchmarkDatingRoundUniform1k(b *testing.B) {
	sel, _ := core.NewUniformSelector(1000)
	benchDatingRound(b, 1000, sel)
}

func BenchmarkDatingRoundUniform100k(b *testing.B) {
	sel, _ := core.NewUniformSelector(100000)
	benchDatingRound(b, 100000, sel)
}

// BenchmarkParallelRound times one seeded dating round at rumor-scale
// node counts, serial (workers=1) versus parallel. The n=1M cases are the
// million-node profile benchmark:
//
//	go test -bench 'ParallelRound/n=1000000' -benchtime 3x
func BenchmarkParallelRound(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		sel, err := core.NewUniformSelector(n)
		if err != nil {
			b.Fatal(err)
		}
		svc, err := core.NewService(bandwidth.Homogeneous(n, 1), sel)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				dates := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := svc.RunRoundSeeded(uint64(21+i), workers, nil)
					if err != nil {
						b.Fatal(err)
					}
					dates += len(res.Dates)
				}
				b.ReportMetric(float64(dates)/float64(b.N)/float64(n), "frac")
				b.ReportMetric(float64(2*n)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
			})
		}
	}
}

func BenchmarkDatingRoundDHT1k(b *testing.B) {
	ring, err := overlay.NewRing(1000, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	sel, _ := core.NewRingSelector(ring)
	benchDatingRound(b, 1000, sel)
}

func BenchmarkChordLookup(b *testing.B) {
	ring, err := overlay.NewRing(4096, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	s := rng.New(4)
	b.ResetTimer()
	hops := 0
	for i := 0; i < b.N; i++ {
		_, h := ring.Lookup(s.Intn(4096), s.Uint64())
		hops += h
	}
	b.ReportMetric(float64(hops)/float64(b.N), "hops")
}

func BenchmarkCDLookup(b *testing.B) {
	ring, err := overlay.NewRing(4096, rng.New(5))
	if err != nil {
		b.Fatal(err)
	}
	s := rng.New(6)
	b.ResetTimer()
	hops := 0
	for i := 0; i < b.N; i++ {
		_, h := ring.LookupCD(s.Intn(4096), s.Uint64())
		hops += h
	}
	b.ReportMetric(float64(hops)/float64(b.N), "hops")
}

func BenchmarkGossipRound(b *testing.B) {
	// Cost of one full spreading run at n=1024, per algorithm.
	for _, a := range gossip.Algorithms() {
		b.Run(a.String(), func(b *testing.B) {
			s := rng.New(7)
			rounds := 0
			for i := 0; i < b.N; i++ {
				res, err := gossip.Run(gossip.Config{Algorithm: a, N: 1024, Source: 0}, s)
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds")
		})
	}
}

func BenchmarkMatchRendezvous(b *testing.B) {
	// The rendezvous inner loop: match 8 offers against 8 requests.
	s := rng.New(10)
	offers := make([]int32, 8)
	requests := make([]int32, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range offers {
			offers[j] = int32(j)
			requests[j] = int32(100 + j)
		}
		core.MatchRendezvous(offers, requests, s, func(_, _ int32) {})
	}
}

func BenchmarkSelectorPick(b *testing.B) {
	// Ablation: cost of one destination draw per selection distribution.
	// Uniform is one bounded draw; alias is two draws + a table lookup;
	// the ring does a binary search over positions.
	const n = 4096
	uni, _ := core.NewUniformSelector(n)
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = float64(i + 1)
	}
	wsel, _ := core.NewWeightedSelector(weights)
	ring, err := overlay.NewRing(n, rng.New(11))
	if err != nil {
		b.Fatal(err)
	}
	rsel, _ := core.NewRingSelector(ring)
	for _, tc := range []struct {
		name string
		sel  core.Selector
	}{
		{"uniform", uni}, {"alias", wsel}, {"ring", rsel},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := rng.New(12)
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += tc.sel.Pick(s)
			}
			if sink == -1 {
				b.Log(sink)
			}
		})
	}
}

func BenchmarkArrangeDates(b *testing.B) {
	// The zero-allocation-profile-free path used by storage and the
	// churning-DHT experiments.
	const n = 1000
	sel, _ := core.NewUniformSelector(n)
	out := make([]int, n)
	in := make([]int, n)
	for i := range out {
		out[i] = 1
		in[i] = 1
	}
	s := rng.New(13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ArrangeDates(out, in, sel, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArranger(b *testing.B) {
	// The scratch-reusing engine path behind ArrangeDates; output is
	// bit-identical for every worker count, so the sub-benchmarks measure
	// pure coordination cost (speedup needs real cores).
	const n = 100000
	sel, _ := core.NewUniformSelector(n)
	out := make([]int, n)
	in := make([]int, n)
	for i := range out {
		out[i] = 1
		in[i] = 1
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
			arr, err := core.NewArranger(sel)
			if err != nil {
				b.Fatal(err)
			}
			s := rng.New(14)
			dates := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds, err := arr.Arrange(out, in, s.Uint64(), workers)
				if err != nil {
					b.Fatal(err)
				}
				dates += len(ds)
			}
			b.ReportMetric(float64(dates)/float64(b.N)/float64(n), "fraction")
			b.ReportMetric(float64(2*n)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

func BenchmarkGF256Mul(b *testing.B) {
	var acc byte
	for i := 0; i < b.N; i++ {
		acc ^= coding.Mul(byte(i), byte(i>>8))
	}
	if acc == 1 {
		b.Log(acc) // defeat dead-code elimination
	}
}

func BenchmarkDecoderAddPacket(b *testing.B) {
	s := rng.New(8)
	const blocks, size = 32, 1024
	blocksData := make([][]byte, blocks)
	for i := range blocksData {
		blocksData[i] = make([]byte, size)
		for j := range blocksData[i] {
			blocksData[i][j] = byte(s.Intn(256))
		}
	}
	src, err := coding.Source(blocksData)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ := coding.NewDecoder(blocks, size)
		for !dst.Decoded() {
			pkt, _ := src.Emit(s)
			if _, err := dst.AddPacket(pkt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkHandshakeRound(b *testing.B) {
	const n = 1000
	p := bandwidth.Homogeneous(n, 1)
	sel, _ := core.NewUniformSelector(n)
	h, err := core.NewHandshake(p, sel, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw, err := simnet.NewNetwork(n)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.RunRound(nw); err != nil {
			b.Fatal(err)
		}
	}
}
