package core

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/bandwidth"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/stats"
)

func parallelService(t *testing.T, n, b int) *Service {
	t.Helper()
	sel, err := NewUniformSelector(n)
	if err != nil {
		t.Fatal(err)
	}
	return mustService(t, bandwidth.Homogeneous(n, b), sel)
}

func TestRunRoundParallelValidation(t *testing.T) {
	// The parallel round's configuration checks: a worker count below one is
	// rejected, with and without an alive filter; any positive count — even
	// one above the node count, which leaves some shards empty — is valid.
	sv := parallelService(t, 10, 1)
	alive := func(i int) bool { return i%2 == 0 }
	for _, workers := range []int{0, -1} {
		if _, err := sv.RunRoundSeeded(1, workers, nil); err == nil {
			t.Errorf("accepted workers = %d", workers)
		}
		if _, err := sv.RunRoundSeeded(1, workers, alive); err == nil {
			t.Errorf("filtered round accepted workers = %d", workers)
		}
	}
	for _, workers := range []int{1, 2, 12} {
		if _, err := sv.RunRoundSeeded(1, workers, nil); err != nil {
			t.Errorf("workers=%d: rejected a valid configuration: %v", workers, err)
		}
		if _, err := sv.RunRoundSeeded(1, workers, alive); err != nil {
			t.Errorf("workers=%d: filtered round rejected a valid configuration: %v", workers, err)
		}
	}
}

func TestSeededRoundDeterministic(t *testing.T) {
	// For a fixed seed the seeded round is bit-for-bit reproducible,
	// including Date order, regardless of how the goroutines were actually
	// scheduled — and the same at every worker count.
	const n, seed = 3000, 99
	run := func(workers int) []RoundResult {
		sv := parallelService(t, n, 2)
		seeds := rng.New(seed)
		var out []RoundResult
		for r := 0; r < 5; r++ {
			res, err := sv.RunRoundSeeded(seeds.Uint64(), workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	ref := run(1)
	for _, workers := range []int{1, 2, 3, 4, 7, 8} {
		if got := run(workers); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: run diverged from the workers=1 run", workers)
		}
	}
}

func TestSeededRoundCapacities(t *testing.T) {
	// The paper's safety property must hold on the parallel path for skewed
	// profiles and selection distributions alike.
	s := rng.New(100)
	p, err := bandwidth.Zipf(400, 1.2, 16, 2, s)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, p.N())
	for i := range weights {
		weights[i] = float64(i%7 + 1)
	}
	sel, err := NewWeightedSelector(weights)
	if err != nil {
		t.Fatal(err)
	}
	sv := mustService(t, p, sel)
	for round := 0; round < 20; round++ {
		res, err := sv.RunRoundSeeded(uint64(101+round), 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateCapacities(res, p); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestSeededRoundChurn(t *testing.T) {
	// Churn on the parallel path: the dead set changes every round; dead
	// nodes never appear in dates, capacities hold, and accounting only
	// counts delivered requests.
	const n = 500
	sv := parallelService(t, n, 2)
	churn := rng.New(8)
	alive := make([]bool, n)
	for round := 0; round < 15; round++ {
		liveOut := 0
		for i := range alive {
			alive[i] = !churn.Bernoulli(0.2)
			if alive[i] {
				liveOut += sv.profile.Out[i]
			}
		}
		res, err := sv.RunRoundSeeded(uint64(7+round), 3, func(i int) bool { return alive[i] })
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Dates {
			if !alive[d.Sender] || !alive[d.Receiver] {
				t.Fatalf("round %d: date %v involves a dead node", round, d)
			}
		}
		if err := ValidateCapacities(res, sv.Profile()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.OffersSent > liveOut {
			t.Fatalf("round %d: %d offers delivered by senders with %d live capacity", round, res.OffersSent, liveOut)
		}
	}
}

func TestSeededRoundMatchesSerialFraction(t *testing.T) {
	// Statistical equivalence at n = 10k: the seeded rounds must arrange
	// the same fraction of the centralized optimum as the caller-stream
	// path, within 1% relative tolerance.
	const n, rounds = 10000, 40
	serial := parallelService(t, n, 1)
	s := rng.New(200)
	var serialAcc stats.Accumulator
	for r := 0; r < rounds; r++ {
		serialAcc.Add(serial.RunRound(s).Fraction(n))
	}

	seeded := parallelService(t, n, 1)
	seeds := rng.New(201)
	var seededAcc stats.Accumulator
	for r := 0; r < rounds; r++ {
		res, err := seeded.RunRoundSeeded(seeds.Uint64(), 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		seededAcc.Add(res.Fraction(n))
	}
	rel := math.Abs(seededAcc.Mean()-serialAcc.Mean()) / serialAcc.Mean()
	if rel > 0.01 {
		t.Fatalf("seeded fraction %.5f vs serial %.5f (relative gap %.4f > 1%%)",
			seededAcc.Mean(), serialAcc.Mean(), rel)
	}
}

func TestSeededRoundControlMessageCounts(t *testing.T) {
	// With everyone alive, every request is delivered: OffersSent == Bout
	// and RequestsSent == Bin, exactly, on every worker count.
	s := rng.New(300)
	p, err := bandwidth.Zipf(300, 1.0, 8, 2, s)
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := NewUniformSelector(p.N())
	sv := mustService(t, p, sel)
	for _, workers := range []int{1, 2, 5} {
		res, err := sv.RunRoundSeeded(301, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.OffersSent != p.TotalOut() || res.RequestsSent != p.TotalIn() {
			t.Fatalf("workers=%d: sent %d/%d, want %d/%d",
				workers, res.OffersSent, res.RequestsSent, p.TotalOut(), p.TotalIn())
		}
	}
}

func TestServiceMixedSerialParallelReuse(t *testing.T) {
	// One Service must survive interleaved serial, parallel, and filtered
	// rounds with different worker counts: the scratch is shared, and a
	// leak from any round shape would corrupt the next.
	const n = 250
	sv := parallelService(t, n, 2)
	s := rng.New(400)
	dead := func(i int) bool { return i%10 != 0 }
	for round := 0; round < 30; round++ {
		var res RoundResult
		var err error
		switch round % 3 {
		case 0:
			res = sv.RunRound(s)
		case 1:
			res, err = sv.RunRoundSeeded(uint64(round), 4, nil)
		case 2:
			res, err = sv.RunRoundSeeded(uint64(round), 2, dead)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateCapacities(res, sv.Profile()); err != nil {
			t.Fatalf("round %d (shape %d): %v", round, round%3, err)
		}
		if round%3 != 2 {
			if res.OffersSent != sv.Profile().TotalOut() {
				t.Fatalf("round %d: OffersSent %d, want %d — scratch leaked across rounds",
					round, res.OffersSent, sv.Profile().TotalOut())
			}
		}
	}
}

// TestServiceManyRoundsAccounting is the scratch-reuse regression test: a
// long sequence of rounds on one Service must keep exact control-message
// accounting and the capacity invariant on every single round (the old
// per-rendezvous slice implementation relied on subtle reset invariants;
// the flat engine must not regress them).
func TestServiceManyRoundsAccounting(t *testing.T) {
	const n, b, rounds = 120, 3, 300
	sv := parallelService(t, n, b)
	s := rng.New(500)
	for round := 0; round < rounds; round++ {
		res := sv.RunRound(s)
		if res.OffersSent != n*b || res.RequestsSent != n*b {
			t.Fatalf("round %d: sent %d/%d, want %d/%d",
				round, res.OffersSent, res.RequestsSent, n*b, n*b)
		}
		if err := ValidateCapacities(res, sv.Profile()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestBalancedCuts(t *testing.T) {
	cases := []struct {
		n, parts int
		weight   func(i int) int
	}{
		{10, 3, func(i int) int { return 1 }},
		{1, 4, func(i int) int { return 2 }},
		{0, 2, func(i int) int { return 1 }},
		{100, 7, func(i int) int { return i }},
		{5, 5, func(i int) int { return 0 }},
	}
	for _, c := range cases {
		cuts := balancedCuts(nil, c.n, c.parts, c.weight)
		if len(cuts) != c.parts+1 {
			t.Fatalf("n=%d parts=%d: %d boundaries", c.n, c.parts, len(cuts))
		}
		if cuts[0] != 0 || cuts[c.parts] != c.n {
			t.Fatalf("n=%d parts=%d: cuts %v do not cover [0,n)", c.n, c.parts, cuts)
		}
		for p := 0; p < c.parts; p++ {
			if cuts[p] > cuts[p+1] {
				t.Fatalf("n=%d parts=%d: cuts %v not monotone", c.n, c.parts, cuts)
			}
		}
	}
	// Uniform weights split evenly.
	cuts := balancedCuts(nil, 1000, 4, func(i int) int { return 1 })
	for p := 0; p < 4; p++ {
		if size := cuts[p+1] - cuts[p]; size < 240 || size > 260 {
			t.Fatalf("uniform cuts %v badly unbalanced", cuts)
		}
	}
}

func TestWorkerScratchOwnCacheLine(t *testing.T) {
	// The hot loop writes the counters once per request, the generator
	// once per draw and the date buffer once per date. Every field before
	// the trailing pad counts as hot, so a
	// field added anywhere but after the pad is covered too: worker w's
	// hot fields and worker w+1's must sit at least a cache line apart.
	var ws workerScratch
	typ := reflect.TypeOf(ws)
	pad := typ.Field(typ.NumField() - 1)
	if pad.Type != reflect.TypeOf(par.Pad{}) {
		t.Fatalf("workerScratch must end in a par.Pad, ends in %s %s", pad.Name, pad.Type)
	}
	if gap := unsafe.Sizeof(ws) - pad.Offset + unsafe.Offsetof(ws.dates); gap < par.CacheLine {
		t.Fatalf("adjacent workers' hot fields %d B apart, want >= %d", gap, par.CacheLine)
	}

	// The Service and the Arranger keep exactly this scratch,
	// and growing it (append may move it) must leave every worker's stream
	// drawing from its own generator.
	sv := parallelService(t, 1000, 2)
	a, err := NewArranger(sv.sel)
	if err != nil {
		t.Fatal(err)
	}
	out, in := sv.profile.Out, sv.profile.In
	for _, workers := range []int{1, 3, 8} {
		if _, err := sv.RunRoundSeeded(5, workers, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Arrange(out, in, 5, workers); err != nil {
			t.Fatal(err)
		}
	}
	for name, scratch := range map[string][]workerScratch{"service": sv.ws, "arranger": a.ws} {
		for w := range scratch {
			scratch[w].gen.Seed(uint64(w))
			if got, want := scratch[w].stream.Uint64(), rng.NewXoshiro256(uint64(w)).Uint64(); got != want {
				t.Fatalf("%s worker %d: stream draws %#x, own generator gives %#x", name, w, got, want)
			}
		}
	}
}
