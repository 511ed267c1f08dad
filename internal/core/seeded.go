package core

// This file holds the Service's seeded round entry points: Algorithm 1 on
// the round body of engine.go with no caller stream, so every node's
// scatter and every rendezvous's match draws from a stream derived from
// the round seed — the Arranger's scheme (same domain tags, same
// derivation). Whichever worker happens to process a node or bucket
// therefore draws the same values, and the round is a pure function of
// (profile, selector, seed, alive): workers is a pure speed knob. In
// particular, an unfiltered seeded round arranges exactly the dates of
// Arranger.Arrange(profile.Out, profile.In, seed, ·) — the test suite pins
// that equivalence.
//
// The price is reseeding a xoshiro generator once per participating node
// and once per non-empty rendezvous bucket: a two-step Derive chain plus a
// four-step SplitMix64 state expansion each, roughly six extra SplitMix64
// steps per node per round in total. BenchmarkSeededRound tracks the cost
// against the caller-stream RunRound.

import (
	"repro/internal/par"
	"repro/internal/rng"
)

// RunRoundShared is RunRoundSeeded with every node alive, drawing its
// worker count from a shared budget: the round runs with the caller's
// worker plus whatever spare tokens b has at this moment, released when
// the round is done. Since the seeded path is worker-count independent,
// whatever the pool hands out is a pure speed knob. A nil budget runs
// serially.
func (sv *Service) RunRoundShared(seed uint64, b *par.Budget) (res RoundResult, err error) {
	b.Use(0, func(workers int) {
		res, err = sv.RunRoundSeeded(seed, workers, nil)
	})
	return res, err
}

// RunRoundSeeded executes Algorithm 1 once with per-node/per-rendezvous
// derived randomness: the result is bit-for-bit identical for every
// workers >= 1, so parallelism never changes published numbers. seed alone
// selects the round's randomness (use a fresh seed per round, e.g. drawn
// off a run stream). The Service's scratch is reused, so a Service still
// runs one round at a time.
//
// A non-nil alive is a liveness predicate: crashed nodes neither emit
// requests nor act as rendezvous points, and requests addressed to them
// are lost — matching a real overlay where a dead rendezvous simply never
// answers. alive is called concurrently from all workers and must be safe
// for concurrent use (in practice: a pure read of state that does not
// change during the round). Because every node draws from its own derived
// stream, the surviving nodes' randomness is unaffected by who crashed —
// and still independent of the worker count.
func (sv *Service) RunRoundSeeded(seed uint64, workers int, alive func(i int) bool) (RoundResult, error) {
	if err := prepare(sv.sel, workers); err != nil {
		return RoundResult{}, err
	}
	return sv.runRound(sv.senderShards(workers, alive), alive, seed, nil, workers), nil
}

// runRound runs the shared round body over the Service's profile and builds
// the RoundResult: the merged dates, the per-node counters rebuilt from
// them and the control-message counts.
func (sv *Service) runRound(cut []int, alive func(i int) bool, seed uint64, s *rng.Stream, workers int) RoundResult {
	sv.round(sv.sel, sv.profile.Out, sv.profile.In, cut, alive, seed, s, workers)
	n := sv.profile.N()
	res := RoundResult{
		PerNodeOut: make([]int, n),
		PerNodeIn:  make([]int, n),
	}
	res.Dates = sv.dates(workers)
	for _, d := range res.Dates {
		res.PerNodeOut[d.Sender]++
		res.PerNodeIn[d.Receiver]++
	}
	for w := 0; w < workers; w++ {
		res.OffersSent += sv.ws[w].offersSent
		res.RequestsSent += sv.ws[w].requestsSent
	}
	return res
}

// senderShards returns the sender cuts of a round, balanced by per-node
// request weight bout(i)+bin(i) so skewed profiles still split evenly.
// Unfiltered rounds reuse static cuts, recomputed only when the worker
// count changes. Under churn the static cuts skew — when crashes
// concentrate in one id region its workers idle while the rest carry the
// round — so filtered rounds rebalance by *live* weight: a dead node weighs
// zero. Rebalancing only moves work between workers; the seeded randomness
// scheme makes the result independent of the cuts, so the output is
// unchanged (the churn tests pin this bit-for-bit).
func (sv *Service) senderShards(workers int, alive func(i int) bool) []int {
	n, out, in := sv.profile.N(), sv.profile.Out, sv.profile.In
	if alive == nil {
		if sv.cutWorkers != workers {
			sv.staticCut = balancedCuts(sv.staticCut, n, workers, func(i int) int { return out[i] + in[i] })
			sv.cutWorkers = workers
		}
		return sv.staticCut
	}
	sv.senderCut = balancedCuts(sv.senderCut, n, workers, func(i int) int {
		if !alive(i) {
			return 0
		}
		return out[i] + in[i]
	})
	return sv.senderCut
}
