package core

// This file implements the one round body behind every dating-round entry
// point of the package: Service.RunRound, Service.RunRoundSeeded (and its
// budget form RunRoundShared), and Arranger.Arrange (and ArrangeShared /
// ArrangeDates). Each of them sizes the scratch, picks its sender shards
// and calls engineScratch.round.
//
// Instead of appending each request to a per-rendezvous slice (one heap
// object per node, pointer-chasing in the match pass), the engine lays the
// round out on the owner-range exchange kernel of internal/exch: a
// radix-partitioned counting sort keyed by rendezvous. Workers own two
// kinds of contiguous ranges: a *sender* shard (which nodes they scatter
// for) and a *destination* range (which rendezvous buckets they build,
// exch.Partition's uniform id cuts). A round runs as:
//
//	scatter   each worker draws destinations for a contiguous shard of
//	          senders and records every emitted (dest, sender) pair into the
//	          exchange chunk of the destination's owner — one small buffer
//	          per (worker, owner) pair, filled in scan order;
//	exchange  exch.Prefix — a tiny serial pass over each owner's incoming
//	          chunk lengths (O(workers²), no length-n scan) prefixed into
//	          per-owner base offsets in the flat output arrays;
//	sort      exch.Fill per owner — each owner counting-sorts its own
//	          destination range (count array covering only that range,
//	          bucket v of each kind ends up as flat[off[v]:off[v+1]]),
//	          replaying the chunks in worker order;
//	match     each worker runs MatchRendezvous over a contiguous shard of
//	          rendezvous buckets, appending to a private date buffer;
//	merge     date buffers are concatenated in worker order.
//
// Because chunks are recorded in scan order within a worker, worker sender
// shards are contiguous ascending ranges, and each owner replays chunks in
// worker order, bucket v always holds its requests in global sender order,
// whatever the worker count.
//
// Randomness comes from one of two sources. RunRound passes the caller's
// stream, and its single worker draws every value from it in scan order.
// The seeded paths pass none: each worker then reseeds its generator per
// unit of work — rng.Derive(seed, domainScatter, node) before a node's
// scatter, rng.Derive(seed, domainMatch, rendezvous) before a bucket's
// match — so whichever worker handles a node or bucket draws the same
// values, and the round is a pure function of (out, in, selector, seed,
// alive): the worker count is a pure speed knob.
//
// Memory is O(n + requests) regardless of the worker count: the owners'
// count arrays partition [0, n) (one length-(n/workers) array each, not one
// length-n array per worker), and the chunk buffers together hold exactly
// the round's recorded requests.
//
// The engine assumes fewer than 2^31 requests of each kind per round
// (offsets are int32); each recorded request already costs 8 bytes of
// scratch, so this bound is far beyond any round that fits in memory.

import (
	"fmt"

	"repro/internal/exch"
	"repro/internal/par"
	"repro/internal/rng"
)

// Derivation domains keep the scatter and match randomness of one round
// disjoint even when a node id equals a rendezvous id.
const (
	domainScatter uint64 = 1
	domainMatch   uint64 = 2
)

// Preparer is an optional Selector extension: selectors whose Pick would
// lazily mutate shared state (e.g. DynamicRingSelector rebuilding its ring
// snapshot) implement Prepare so the parallel engine can force that work to
// happen once, before workers fan out. Selectors without Prepare must be
// read-only under Pick.
type Preparer interface {
	// Prepare brings the selector to a state where concurrent Pick calls
	// with distinct streams are safe.
	Prepare() error
}

// prepare validates a parallel round's worker count and forces lazily
// built selector state (e.g. a churned ring snapshot) into place before any
// fanout, so Pick is a pure read on every worker.
func prepare(sel Selector, workers int) error {
	if workers < 1 {
		return fmt.Errorf("core: dating round needs workers >= 1, got %d", workers)
	}
	if p, ok := sel.(Preparer); ok {
		if err := p.Prepare(); err != nil {
			return fmt.Errorf("core: selector prepare failed: %w", err)
		}
	}
	return nil
}

// workerScratch is the per-worker slice of the engine state that is not
// part of the request exchange: the private date buffer of the match pass,
// the control-message counters of the scatter pass and the reseedable
// generator of the seeded paths. The counters, the date buffer and the
// generator are written in the hot loop, so the struct ends in a par.Pad:
// no two workers' scratch share a cache line.
type workerScratch struct {
	dates        []Date
	offersSent   int
	requestsSent int

	// gen is reseeded per node (scatter) and per bucket (match) by the
	// seeded paths — four SplitMix64 steps, far cheaper than allocating a
	// stream per unit of work; stream draws from gen.
	gen    rng.Xoshiro256
	stream rng.Stream

	_ par.Pad
}

// growWorkers extends ws to at least workers entries. Growing may move the
// scratch, so every worker's stream is rebound to its own generator.
func growWorkers(ws []workerScratch, workers int) []workerScratch {
	if len(ws) >= workers {
		return ws
	}
	ws = append(ws, make([]workerScratch, workers-len(ws))...)
	for w := range ws {
		ws[w].stream = *rng.NewWithSource(&ws[w].gen)
	}
	return ws
}

// engineScratch is the round state a Service or an Arranger reuses across
// rounds. It grows to the largest (n, workers) seen and is never shared
// between owners.
type engineScratch struct {
	ws []workerScratch

	// offers/reqs are the owner-range exchanges of the round's two request
	// kinds: keys are rendezvous ids, values sender ids.
	offers exch.Exchange[int32]
	reqs   exch.Exchange[int32]

	offerOff   []int32 // len n+1: offers bucket v is offersFlat[offerOff[v]:offerOff[v+1]]
	reqOff     []int32
	offersFlat []int32
	reqFlat    []int32
	senderCut  []int // per-round sender cuts: worker w scatters [cut[w], cut[w+1])
	rdvCut     []int // len workers+1: worker w matches rendezvous [cut[w], cut[w+1])
}

// round runs Algorithm 1 once and leaves the dates in the workers' buffers
// (collect them with dates). out[i] and in[i] are node i's offer and
// request counts; cut holds the workers+1 sender-shard boundaries; a
// non-nil alive makes dead nodes neither scatter nor match, and requests
// addressed to them are lost. With s non-nil the round draws from s and
// workers must be 1; with s nil every node and bucket draws from a stream
// derived from seed.
func (eng *engineScratch) round(sel Selector, out, in, cut []int, alive func(i int) bool, seed uint64, s *rng.Stream, workers int) {
	n := len(out)
	eng.ensure(n, workers)

	// Scatter: worker w draws destinations for its sender shard, recording
	// each pair into the chunk of the destination's owner.
	par.Do(workers, func(w int) { eng.scatter(w, sel, out, in, cut, alive, seed, s) })

	// Exchange + sort: Prefix both exchanges serially, then fan the owners
	// out to Fill their destination ranges, every bucket in global sender
	// order.
	offTotal := eng.offers.Prefix()
	reqTotal := eng.reqs.Prefix()
	eng.offersFlat = grow(eng.offersFlat, int(offTotal))
	eng.reqFlat = grow(eng.reqFlat, int(reqTotal))
	par.Do(workers, func(o int) {
		eng.offers.Fill(o, eng.offerOff, eng.offersFlat)
		eng.reqs.Fill(o, eng.reqOff, eng.reqFlat)
	})
	eng.offerOff[n] = offTotal
	eng.reqOff[n] = reqTotal

	// Match: shard rendezvous nodes across workers, balanced by bucket
	// size (the shuffle cost of MatchRendezvous is linear in it).
	eng.rdvCut = balancedCuts(eng.rdvCut, n, workers, func(v int) int {
		return int(eng.offerOff[v+1]-eng.offerOff[v]) + int(eng.reqOff[v+1]-eng.reqOff[v])
	})
	par.Do(workers, func(w int) { eng.match(w, seed, s) })
}

// scatter runs worker w's share of the scatter pass over the sender shard
// cut[w]..cut[w+1]. Nodes with nothing to send and dead nodes are skipped
// without drawing. With s nil the worker reseeds its generator once per
// scanned node, so the shard cuts only decide which worker does the work,
// never the draws.
func (eng *engineScratch) scatter(w int, sel Selector, out, in, cut []int, alive func(i int) bool, seed uint64, s *rng.Stream) {
	ws := &eng.ws[w]
	ws.reset()
	offers, reqs := &eng.offers, &eng.reqs
	offers.ClearWorker(w)
	reqs.ClearWorker(w)
	derive := s == nil
	if derive {
		s = &ws.stream
	}
	for i := cut[w]; i < cut[w+1]; i++ {
		if out[i] == 0 && in[i] == 0 || alive != nil && !alive(i) {
			continue
		}
		if derive {
			ws.gen.Seed(rng.Derive(seed, domainScatter, uint64(i)))
		}
		for k := 0; k < out[i]; k++ {
			dest := sel.Pick(s)
			if alive != nil && !alive(dest) {
				continue // lost: rendezvous is down
			}
			offers.Record(w, int32(dest), int32(i))
			ws.offersSent++
		}
		for k := 0; k < in[i]; k++ {
			dest := sel.Pick(s)
			if alive != nil && !alive(dest) {
				continue
			}
			reqs.Record(w, int32(dest), int32(i))
			ws.requestsSent++
		}
	}
}

// match runs worker w's share of the match pass over the sorted buckets,
// appending to the worker's date buffer. Buckets with either side empty
// arrange nothing and consume no randomness, so they are skipped without
// reseeding.
func (eng *engineScratch) match(w int, seed uint64, s *rng.Stream) {
	ws := &eng.ws[w]
	derive := s == nil
	if derive {
		s = &ws.stream
	}
	emit := func(sender, receiver int32) {
		ws.dates = append(ws.dates, Date{Sender: int(sender), Receiver: int(receiver)})
	}
	for v := eng.rdvCut[w]; v < eng.rdvCut[w+1]; v++ {
		offers := eng.offersFlat[eng.offerOff[v]:eng.offerOff[v+1]]
		requests := eng.reqFlat[eng.reqOff[v]:eng.reqOff[v+1]]
		if len(offers) == 0 || len(requests) == 0 {
			continue
		}
		if derive {
			ws.gen.Seed(rng.Derive(seed, domainMatch, uint64(v)))
		}
		MatchRendezvous(offers, requests, s, emit)
	}
}

// dates concatenates the workers' date buffers in worker order. Workers
// match contiguous ascending rendezvous ranges, so the result is in
// rendezvous order — the same sequence for every worker count.
func (eng *engineScratch) dates(workers int) []Date {
	total := 0
	for w := 0; w < workers; w++ {
		total += len(eng.ws[w].dates)
	}
	dates := make([]Date, 0, total)
	for w := 0; w < workers; w++ {
		dates = append(dates, eng.ws[w].dates...)
	}
	return dates
}

// reset readies a worker's scratch for a round.
func (ws *workerScratch) reset() {
	ws.dates = ws.dates[:0]
	ws.offersSent = 0
	ws.requestsSent = 0
}

// ensure sizes the scratch for an (n, workers) round. The request
// exchanges are re-partitioned every round (a no-op while (n, workers) is
// stable).
func (eng *engineScratch) ensure(n, workers int) {
	eng.ws = growWorkers(eng.ws, workers)
	if len(eng.offerOff) != n+1 {
		eng.offerOff = make([]int32, n+1)
		eng.reqOff = make([]int32, n+1)
	}
	part := exch.Partition{N: n, Parts: workers}
	eng.offers.Reset(workers, part)
	eng.reqs.Reset(workers, part)
}

// grow returns s resliced to length size, reallocating only when needed.
func grow(s []int32, size int) []int32 {
	if cap(s) >= size {
		return s[:size]
	}
	return make([]int32, size)
}

// balancedCuts splits [0, n) into parts contiguous ranges of roughly equal
// total weight, returning the parts+1 boundaries (reusing cuts). Empty
// ranges are possible when parts > n or the weight is concentrated; they
// are valid (the worker simply does nothing). The result is a pure
// function of its inputs, keeping shard assignment deterministic.
func balancedCuts(cuts []int, n, parts int, weight func(i int) int) []int {
	cuts = append(cuts[:0], 0)
	var total int64
	for i := 0; i < n; i++ {
		total += int64(weight(i))
	}
	var acc int64
	i := 0
	for p := 1; p < parts; p++ {
		target := total * int64(p) / int64(parts)
		for i < n && acc < target {
			acc += int64(weight(i))
			i++
		}
		cuts = append(cuts, i)
	}
	return append(cuts, n)
}
