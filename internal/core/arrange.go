package core

// This file implements the supply/demand entry point of the dating service
// (Arranger, ArrangeDates) on the round body of engine.go. An Arranger's
// output is a pure function of (supply, demand, selector, seed): it
// derives a stream per requesting node and per rendezvous bucket from the
// round seed, exactly as the Service's seeded rounds do, so Workers=k is
// bit-for-bit identical to Workers=1 under any goroutine schedule. Storage
// and churn experiments rely on this: they can turn the Workers knob
// without changing a single published number.

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/rng"
)

// Arranger runs dating rounds directly from per-node supply and demand
// vectors, reusing scratch buffers across rounds. Like Service, an Arranger
// runs one round at a time — do not call Arrange concurrently; parallelism
// happens *inside* a round via the workers argument.
type Arranger struct {
	sel Selector

	engineScratch // round scratch, reused across rounds (see engine.go)
}

// NewArranger returns an Arranger over the given selection distribution.
func NewArranger(sel Selector) (*Arranger, error) {
	if sel == nil {
		return nil, fmt.Errorf("core: arranger needs a selector")
	}
	return &Arranger{sel: sel}, nil
}

// N returns the number of addressable nodes.
func (a *Arranger) N() int { return a.sel.N() }

// ArrangeShared is Arrange drawing its worker count from a shared budget:
// the round runs with the caller's worker plus whatever spare tokens b has
// at this moment, released when the round is done. Because Arrange is
// worker-count independent, whatever the pool hands out is a pure speed
// knob. A nil budget arranges serially.
func (a *Arranger) ArrangeShared(out, in []int, seed uint64, b *par.Budget) (dates []Date, err error) {
	b.Use(0, func(workers int) {
		dates, err = a.Arrange(out, in, seed, workers)
	})
	return dates, err
}

// Arrange runs one dating-service round: out[i] offers (units node i wants
// to send) and in[i] requests (units node i can absorb), both of which may
// be zero — protocols such as replicated storage have fluctuating per-round
// demand, and a node with nothing to offer simply stays silent that round.
// The paper's abstract description covers this directly: the service
// "randomly joins demands and supplies of some resource into couples".
//
// Entries must be non-negative and both slices must have the selector's
// length. Dates never exceed out[i]/in[i] for any node, and are returned in
// rendezvous order. The result is bit-for-bit identical for every workers
// count >= 1; seed alone selects the round's randomness.
func (a *Arranger) Arrange(out, in []int, seed uint64, workers int) ([]Date, error) {
	n := a.sel.N()
	if len(out) != n || len(in) != n {
		return nil, fmt.Errorf("core: supply/demand vectors (%d/%d) must match selector size %d", len(out), len(in), n)
	}
	for i := 0; i < n; i++ {
		if out[i] < 0 || in[i] < 0 {
			return nil, fmt.Errorf("core: negative supply/demand at node %d", i)
		}
	}
	if err := prepare(a.sel, workers); err != nil {
		return nil, err
	}
	// Sender shards are balanced by the round's request weight; the cuts
	// only affect which worker does the work, never the draws.
	a.senderCut = balancedCuts(a.senderCut, n, workers, func(i int) int { return out[i] + in[i] })
	a.round(a.sel, out, in, a.senderCut, nil, seed, nil, workers)
	return a.dates(workers), nil
}

// ArrangeDates is the one-shot convenience form of Arranger.Arrange: it
// draws the round seed from s (advancing it by exactly one value) and runs
// serially without scratch reuse. Hot paths that arrange every round —
// storage, churning-DHT spreading — should hold an Arranger instead.
func ArrangeDates(out, in []int, sel Selector, s *rng.Stream) ([]Date, error) {
	a, err := NewArranger(sel)
	if err != nil {
		return nil, err
	}
	return a.Arrange(out, in, s.Uint64(), 1)
}
