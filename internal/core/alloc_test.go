package core

// The radix scatter's memory claim, as a regression test: a round's scratch
// is O(n + requests), so the bytes a fresh Service allocates to run its
// first round must not scale with the worker count at fixed n. The pre-
// radix engine held two length-n count arrays per worker (O(workers·n)) and
// fails this test by a wide margin.
//
// testing.AllocsPerRun counts allocations, not bytes, and the worker-count
// scaling lives in bytes (two big arrays per extra worker) — so the test
// samples runtime.ReadMemStats around the round instead. TotalAlloc is
// cumulative across all goroutines, which also covers the allocations the
// phase workers make off the calling goroutine.

import (
	"runtime"
	"testing"

	"repro/internal/bandwidth"
)

// allocFirstRound returns the bytes allocated by constructing a Service at
// n nodes and running one seeded round at the given worker count — i.e. the
// full scratch footprint a round of that shape needs.
func allocFirstRound(t *testing.T, n, workers int) uint64 {
	t.Helper()
	sel, err := NewUniformSelector(n)
	if err != nil {
		t.Fatal(err)
	}
	profile := bandwidth.Homogeneous(n, 1)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	svc, err := NewService(profile, sel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RunRoundSeeded(1, workers, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(svc)
	return after.TotalAlloc - before.TotalAlloc
}

func TestRoundAllocBytesIndependentOfWorkers(t *testing.T) {
	// At n=50k, each extra worker used to cost 2·4·n = 400 KB of count
	// arrays: 16 workers allocated ~6 MB more than 1 worker, about 3x the
	// serial footprint. Under the radix scatter the owners' count arrays
	// partition [0, n) and the chunks hold exactly the round's requests, so
	// the 16-worker round must stay within a modest constant of the serial
	// one (goroutine stacks, chunk headers, fan-out bookkeeping).
	const n = 50_000
	serial := allocFirstRound(t, n, 1)
	wide := allocFirstRound(t, n, 16)
	if serial == 0 {
		t.Fatal("serial round reported zero allocation — measurement broken")
	}
	if limit := serial + serial/2; wide > limit {
		t.Fatalf("16-worker first round allocated %d bytes vs %d serial (limit %d): scratch scales with workers again",
			wide, serial, limit)
	}
}

func TestSteadyStateRoundAllocsFlat(t *testing.T) {
	// After the first round the scratch is warm: subsequent rounds must not
	// re-allocate worker-count-scaled buffers either. (Per-round result
	// slices — Dates, PerNode counters — are O(n) and identical for every
	// worker count, since the seeded path is worker-count independent.)
	const n, rounds = 20_000, 4
	measure := func(workers int) uint64 {
		sel, err := NewUniformSelector(n)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewService(bandwidth.Homogeneous(n, 1), sel)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.RunRoundSeeded(1, workers, nil); err != nil { // warm-up
			t.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < rounds; r++ {
			if _, err := svc.RunRoundSeeded(uint64(r+2), workers, nil); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(svc)
		return after.TotalAlloc - before.TotalAlloc
	}
	serial := measure(1)
	wide := measure(8)
	if serial == 0 {
		t.Fatal("steady-state serial rounds reported zero allocation — measurement broken")
	}
	if limit := serial + serial/2; wide > limit {
		t.Fatalf("8-worker steady-state rounds allocated %d bytes vs %d serial (limit %d)",
			wide, serial, limit)
	}
}
