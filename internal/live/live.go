// Package live is the sharded message-level runtime: it executes the same
// per-peer protocol step functions as the simnet engines, but scales to
// millions of peers by replacing goroutine-per-peer execution with a fixed
// set of shard workers and flat, reusable message buffers.
//
// # Architecture
//
// The runtime splits the peer id space into Shards contiguous ranges, one
// per worker; each shard also *owns* its range as a destination range. Each
// round proceeds in three phases:
//
//	deliver  the messages due this round are counting-sorted by destination
//	         into one flat buffer on the owner-range exchange kernel of
//	         internal/exch: each shard splits its contiguous chunk of the
//	         slot into per-owner (destination, index) chunks, exch.Prefix
//	         assigns base offsets with a tiny serial pass over owner totals,
//	         and each owner exch.Fill-sorts its own peer range (count array
//	         covering only that range, stable) — so peer i's inbox is the
//	         contiguous slice flat[off[i]:off[i+1]], and delivery scratch is
//	         O(n + messages) instead of one length-n count array per shard;
//	step     each shard worker walks its peer range in order, invoking the
//	         StepFunc with the peer's inbox and private stream; emitted
//	         messages are planned by the NetModel and recorded in the
//	         per-(shard, delay) chunks of a second, concat-form exchange;
//	route    per-(shard, delay) chunk lengths are known after the step
//	         phase, so exch.SetBase assigns each shard a disjoint range of
//	         every due delivery-ring slot and the shards exch.Flush their
//	         chunks in parallel (same shard-order concatenation as the old
//	         serial append pass); traffic counters are merged.
//
// # Determinism
//
// A run is a pure function of (n, seed, step, net model) — the shard count
// is invisible. Three properties make that hold:
//
//   - Peer randomness: peer i draws from a stream seeded
//     rng.Derive(seed, peerDomain, i), stored as a flat xoshiro state array;
//     only the shard owning peer i ever advances state i.
//   - Network randomness: a NetModel that consumes randomness gets a stream
//     seeded rng.Derive(seed, netDomain, round, sender), re-derived at each
//     sender's first emission of the round; decisions depend on the message
//     sequence, never the worker.
//   - Message order: shards own contiguous ascending peer ranges and walk
//     them in order, so concatenating shard chunks in shard order yields
//     global sender order; the delivery sort is stable, so every inbox is
//     in canonical (send round, sender, emission index) order — the exact
//     order the goroutine-per-peer simnet.Live engine produces.
//
// The runtime is therefore bit-identical to a sequential run for any shard
// count, and — under the Sync model, with identical per-peer streams — to
// simnet.Live itself. The test suite pins both properties.
package live

import (
	"fmt"
	"runtime"
	"time"
	"unsafe"

	"repro/internal/exch"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/simnet"
)

// Seed-derivation domains, keeping the runtime's stream families disjoint.
const (
	peerDomain  uint64 = 0x91 // per-peer protocol streams
	netDomain   uint64 = 0x92 // per-(round, sender) network-model streams
	churnDomain uint64 = 0x93 // EpochChurn's (epoch, peer) down-ness hash
	ringDomain  uint64 = 0x94 // UniformRing's embedding positions
)

// PeerSeed returns the seed of peer i's private stream in a runtime rooted
// at seed. Exposed so tests can replay a runtime's exact randomness on the
// legacy engines.
func PeerSeed(seed uint64, i int) uint64 {
	return rng.Derive(seed, peerDomain, uint64(i))
}

// StepFunc is one peer's behavior for one round: given its id, the round
// number, and the messages delivered to it, it emits the messages it wants
// to send (From is stamped by the runtime). The provided stream is the
// peer's private randomness. A StepFunc may keep per-peer protocol state
// indexed by node, but must not touch any shared state: peers of different
// shards run concurrently. The emit-callback shape (instead of returning a
// slice, as simnet.StepFunc does) lets the runtime route messages without a
// per-peer allocation; Adapt converts a simnet.StepFunc.
type StepFunc func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message))

// Adapt wraps a slice-returning simnet.StepFunc as a StepFunc, so protocol
// code written for the legacy engines runs on the sharded runtime unchanged.
func Adapt(step simnet.StepFunc) StepFunc {
	return func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) {
		for _, m := range step(node, round, inbox, s) {
			emit(m)
		}
	}
}

// Config parameterizes a runtime.
type Config struct {
	// N is the peer count.
	N int
	// Seed roots every stream of the run.
	Seed uint64
	// Step is the per-peer protocol.
	Step StepFunc
	// Shards is the worker count; any value produces bit-identical results.
	// 0 selects GOMAXPROCS.
	Shards int
	// Net decides message fates; nil is the paper's perfect-sync model.
	Net NetModel
	// Obs, when non-nil, receives per-(round, shard, phase) spans and
	// per-round gauges. Observers are read-only: attaching one never
	// changes any result (the determinism suites pin this).
	Obs *obs.Observer
}

// cursorSource adapts the flat per-peer xoshiro state array as an
// rng.Source: the owning shard points node at the peer being stepped, so
// one Stream per shard serves every peer of the shard without allocation.
type cursorSource struct {
	states []rng.Xoshiro256
	node   int
}

func (c *cursorSource) Uint64() uint64   { return c.states[c.node].Uint64() }
func (c *cursorSource) Seed(seed uint64) { c.states[c.node].Seed(seed) }

// shard is one worker's private state. Shards only ever touch their own
// fields plus disjoint regions of the runtime's flat arrays and their own
// rows/ranges of the two exchanges. The cursor, sender and counters are
// written per peer and per message, so the struct ends in a par.Pad: no
// two shards' state share a cache line.
type shard struct {
	w         int
	src       cursorSource
	stream    *rng.Stream
	netGen    rng.Xoshiro256
	netStream *rng.Stream

	sender    int
	netSeeded bool
	emit      func(simnet.Message)

	sent    int64
	dropped int64
	clamped int64
	byKind  [256]int64

	_ par.Pad
}

// Runtime executes a protocol over n peers with shard workers. Construct
// with New; a Runtime runs one round at a time (Run must not be called
// concurrently), parallelism happens inside the round.
type Runtime struct {
	n        int
	shards   int
	step     StepFunc
	net      NetModel
	netRand  bool
	maxDelay int
	seed     uint64
	round    int

	states []rng.Xoshiro256
	part   exch.Partition // peer/destination ranges, one per shard
	sh     []shard

	// inbox is the delivery exchange: per-(shard, owner) chunks of
	// (destination, slot index) records, Fill-sorted by each owner.
	inbox exch.Exchange[int32]
	// outbox is the route exchange: per-(shard, delay) concat chunks of
	// emitted messages, flushed into the ring with SetBase/Flush.
	outbox exch.Exchange[simnet.Message]

	// slots is the delivery ring: messages due at round r sit in
	// slots[r % (maxDelay+1)], in canonical (send round, sender) order.
	slots [][]simnet.Message
	// sorted/inOff are the delivered view: peer i's inbox this round is
	// sorted[inOff[i]:inOff[i+1]]. sortedIdx is the Fill output feeding the
	// gather (slot indices, 4 bytes each, instead of 40-byte messages in
	// the exchange chunks).
	sorted    []simnet.Message
	sortedIdx []int32
	inOff     []int32

	stats simnet.Stats

	// Instrumentation (nil when no observer is attached; the hot path then
	// pays a nil check and nothing else). arenas[w] is shard w's span sink,
	// merged into tr at the route barrier; the gauges sample the runtime's
	// counters once per round from the coordinator.
	tr                  *obs.Track
	arenas              []*obs.Arena
	gSent, gDropped     *obs.Gauge
	gClamped, gInFlight *obs.Gauge
	gScratch            *obs.Gauge
}

// New builds a runtime. Peer streams are seeded in parallel across the
// shard workers.
func New(cfg Config) (*Runtime, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("live: runtime needs n > 0, got %d", cfg.N)
	}
	if cfg.Step == nil {
		return nil, fmt.Errorf("live: runtime needs a step function")
	}
	net := cfg.Net
	if net == nil {
		net = Sync{}
	}
	if err := validateNet(net, cfg.N); err != nil {
		return nil, err
	}
	// Validate the configured value before applying the default, so a
	// negative Shards is rejected (with the value the caller wrote) instead
	// of sliding past the GOMAXPROCS substitution.
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("live: shards %d must be non-negative (0 selects GOMAXPROCS)", cfg.Shards)
	}
	shards := EffectiveShards(cfg.N, cfg.Shards)

	rt := &Runtime{
		n:        cfg.N,
		shards:   shards,
		step:     cfg.Step,
		net:      net,
		netRand:  net.Random(),
		maxDelay: net.MaxDelay(),
		seed:     cfg.Seed,
		states:   make([]rng.Xoshiro256, cfg.N),
		part:     exch.Partition{N: cfg.N, Parts: shards},
		sh:       make([]shard, shards),
		slots:    make([][]simnet.Message, net.MaxDelay()+1),
		inOff:    make([]int32, cfg.N+1),
	}
	rt.inbox.Reset(shards, rt.part)
	ring := rt.maxDelay + 1
	rt.outbox.Reset(shards, exch.Partition{N: ring, Parts: ring})
	for w := range rt.sh {
		sh := &rt.sh[w]
		sh.w = w
		sh.src.states = rt.states
		sh.stream = rng.NewWithSource(&sh.src)
		sh.netStream = rng.NewWithSource(&sh.netGen)
		sh.emit = rt.makeEmit(sh)
	}
	if cfg.Obs != nil {
		rt.tr = cfg.Obs.Track("live", shards)
		rt.arenas = make([]*obs.Arena, shards)
		for w := range rt.arenas {
			rt.arenas[w] = rt.tr.Arena(w)
		}
		rt.gSent = rt.tr.Gauge("sent")
		rt.gDropped = rt.tr.Gauge("dropped")
		rt.gClamped = rt.tr.Gauge("clamped")
		rt.gInFlight = rt.tr.Gauge("queue_depth")
		rt.gScratch = rt.tr.Gauge("scratch_bytes")
	}
	rt.fanOut(func(w int) {
		lo, hi := rt.part.Range(w)
		for i := lo; i < hi; i++ {
			rt.states[i].Seed(PeerSeed(cfg.Seed, i))
		}
	})
	return rt, nil
}

// EffectiveShards returns the worker count New runs with for a configured
// Shards value over n peers: 0 selects GOMAXPROCS, and the count is capped
// at n. Exposed so protocols that keep per-peer state in shard-owned
// contiguous blocks (one block per worker, see internal/gossip's topology
// state) can size their partition to match the runtime's exactly.
func EffectiveShards(n, shards int) int {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > n {
		shards = n
	}
	return shards
}

// N returns the peer count.
func (rt *Runtime) N() int { return rt.n }

// Shards returns the effective worker count.
func (rt *Runtime) Shards() int { return rt.shards }

// Round returns the next round number Run will execute.
func (rt *Runtime) Round() int { return rt.round }

// Stats returns a copy of the traffic counters.
func (rt *Runtime) Stats() simnet.Stats { return rt.stats }

// makeEmit builds shard sh's emission callback: stamp the sender, let the
// net model plan the flight time, and record the message in the matching
// per-(shard, delay) chunk of the route exchange. Messages to out-of-range
// peers and messages the model drops are both counted as Dropped, matching
// the simnet engines.
func (rt *Runtime) makeEmit(sh *shard) func(simnet.Message) {
	return func(m simnet.Message) {
		m.From = sh.sender
		if m.To < 0 || m.To >= rt.n {
			sh.dropped++
			return
		}
		var s *rng.Stream
		if rt.netRand {
			if !sh.netSeeded {
				sh.netGen.Seed(rng.Derive(rt.seed, netDomain, uint64(rt.round), uint64(sh.sender)))
				sh.netSeeded = true
			}
			s = sh.netStream
		}
		d := rt.net.Plan(rt.round, m, s)
		if d < 1 {
			sh.dropped++
			return
		}
		if d > rt.maxDelay {
			// A Plan result beyond MaxDelay() means the model's two methods
			// disagree — a model bug, not a network event. The runtime cannot
			// schedule past its delivery ring, so it delivers at the horizon,
			// but counts the rewrite in Stats.Clamped instead of silently
			// reclassifying it as a valid delivery.
			d = rt.maxDelay
			sh.clamped++
		}
		sh.sent++
		sh.byKind[m.Kind]++
		rt.outbox.RecordTo(sh.w, d, m)
	}
}

// fanOut runs f(w) for every shard; w == 0 runs on the calling goroutine.
// Barriers before and after are the only synchronization in the runtime.
func (rt *Runtime) fanOut(f func(w int)) {
	par.Do(rt.shards, f)
}

// fanOutSpan is fanOut with each shard's work recorded as a phase span in
// the shard's private arena. With no observer it is exactly fanOut — the
// disabled path costs one nil check per phase.
func (rt *Runtime) fanOutSpan(p obs.Phase, f func(w int)) {
	if rt.arenas == nil {
		rt.fanOut(f)
		return
	}
	round := rt.round
	rt.fanOut(func(w int) {
		t0 := time.Now()
		f(w)
		rt.arenas[w].Record(round, p, t0)
	})
}

// roundSample feeds the per-round gauges and merges the shard arenas into
// the track; called by the coordinator at the end of route, where the
// shards are quiescent. No-op without an observer.
func (rt *Runtime) roundSample() {
	if rt.tr == nil {
		return
	}
	rt.gSent.Sample(rt.round, rt.stats.Sent)
	rt.gDropped.Sample(rt.round, rt.stats.Dropped)
	rt.gClamped.Sample(rt.round, rt.stats.Clamped)
	depth := 0
	for _, s := range rt.slots {
		depth += len(s)
	}
	rt.gInFlight.Sample(rt.round, int64(depth))
	rt.gScratch.Sample(rt.round, rt.scratchBytes())
	rt.tr.Barrier()
}

// scratchBytes estimates the runtime's reusable buffer footprint: the
// delivery ring, the delivered view and the two exchanges' chunk capacity.
func (rt *Runtime) scratchBytes() int64 {
	const msgBytes = int64(unsafe.Sizeof(simnet.Message{}))
	b := int64(cap(rt.sorted))*msgBytes + int64(cap(rt.sortedIdx))*4 + int64(cap(rt.inOff))*4
	for _, s := range rt.slots {
		b += int64(cap(s)) * msgBytes
	}
	return b
}

// Run executes the given number of rounds and returns the cumulative
// traffic statistics. It may be called repeatedly; in-flight messages carry
// over between calls.
func (rt *Runtime) Run(rounds int) simnet.Stats {
	for r := 0; r < rounds; r++ {
		rt.deliver()
		rt.stepAll()
		rt.route()
		rt.round++
		rt.stats.Rounds++
	}
	return rt.stats
}

// Inbox returns the messages delivered to peer i in the round Run executed
// last, for post-run inspection. Valid until the next Run call.
func (rt *Runtime) Inbox(i int) []simnet.Message {
	return rt.sorted[rt.inOff[i]:rt.inOff[i+1]]
}

// deliver counting-sorts the slot due this round by destination on the
// owner-range exchange: each shard splits its contiguous chunk of the slot
// into per-owner (destination, index) chunks, the serial Prefix assigns
// owner base offsets, and each owner Fills its peer range and gathers the
// messages themselves. Within a bucket Fill's order is ascending slot
// position — the canonical (send round, sender, emission index) order.
// Delivery scratch is O(n + messages): the owners' count arrays partition
// [0, n) instead of every shard holding a length-n array. An empty slot
// zeroes the delivered view so inboxes read empty.
func (rt *Runtime) deliver() {
	slot := rt.round % (rt.maxDelay + 1)
	buf := rt.slots[slot]
	if len(buf) == 0 {
		rt.sorted = rt.sorted[:0]
		for i := range rt.inOff {
			rt.inOff[i] = 0
		}
		return
	}

	bufPart := exch.Partition{N: len(buf), Parts: rt.shards}
	rt.fanOutSpan(obs.PhaseDeliver, func(w int) {
		rt.inbox.ClearWorker(w)
		lo, hi := bufPart.Range(w)
		for k := lo; k < hi; k++ {
			rt.inbox.Record(w, int32(buf[k].To), int32(k))
		}
	})
	rt.inbox.Prefix()

	if cap(rt.sorted) < len(buf) {
		// Size to the slot's capacity, not its length: slots grow by
		// doubling, so the delivered view regrows only when they do.
		rt.sorted = make([]simnet.Message, cap(buf))
		rt.sortedIdx = make([]int32, cap(buf))
	}
	rt.sorted = rt.sorted[:len(buf)]
	rt.sortedIdx = rt.sortedIdx[:len(buf)]
	rt.fanOutSpan(obs.PhaseDeliver, func(o int) {
		end := rt.inbox.Fill(o, rt.inOff, rt.sortedIdx)
		for j := rt.inbox.Base(o); j < end; j++ {
			rt.sorted[j] = buf[rt.sortedIdx[j]]
		}
	})
	rt.inOff[rt.n] = int32(len(buf))
	rt.slots[slot] = buf[:0]
}

// stepAll advances every peer one round: shard w walks its peer range in
// ascending order, pointing the shared cursor stream at each peer.
func (rt *Runtime) stepAll() {
	rt.fanOutSpan(obs.PhaseStep, func(w int) {
		sh := &rt.sh[w]
		lo, hi := rt.part.Range(w)
		for i := lo; i < hi; i++ {
			sh.sender = i
			sh.netSeeded = false
			sh.src.node = i
			rt.step(i, rt.round, rt.sorted[rt.inOff[i]:rt.inOff[i+1]], sh.stream, sh.emit)
		}
	})
}

// route copies the shards' per-delay chunks into the delivery ring's
// future slots in parallel and merges the traffic counters. Per-(shard,
// delay) chunk lengths are known after the step phase, so exch.SetBase
// sizes each due slot once and assigns every shard a disjoint range of it;
// the shards then Flush concurrently, replacing the coordinator's old
// serial O(messages) append pass while preserving the exact shard-order
// concatenation (= global sender order). Slot (round + d) is never the
// slot delivered this round since 1 <= d <= maxDelay < ring size.
func (rt *Runtime) route() {
	ring := rt.maxDelay + 1
	work := false
	for d := 1; d <= rt.maxDelay; d++ {
		slot := (rt.round + d) % ring
		base := len(rt.slots[slot])
		acc := rt.outbox.SetBase(d, base)
		if acc == base {
			continue
		}
		work = true
		rt.slots[slot] = growMessages(rt.slots[slot], acc)
	}
	if work {
		rt.fanOutSpan(obs.PhaseRoute, func(w int) {
			for d := 1; d <= rt.maxDelay; d++ {
				slot := (rt.round + d) % ring
				rt.outbox.Flush(w, d, rt.slots[slot])
			}
		})
	}
	for w := range rt.sh {
		sh := &rt.sh[w]
		rt.stats.Sent += sh.sent
		rt.stats.Dropped += sh.dropped
		rt.stats.Clamped += sh.clamped
		sh.sent = 0
		sh.dropped = 0
		sh.clamped = 0
		for k, c := range sh.byKind {
			if c != 0 {
				rt.stats.ByKind[k] += c
				sh.byKind[k] = 0
			}
		}
	}
	rt.roundSample()
}

// growMessages returns s resliced to length size, preserving its contents
// and reallocating (with append-style headroom) only when needed.
func growMessages(s []simnet.Message, size int) []simnet.Message {
	if cap(s) >= size {
		return s[:size]
	}
	ns := make([]simnet.Message, size, max(size, 2*cap(s)))
	copy(ns, s)
	return ns
}
