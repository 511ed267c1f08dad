package gossip

// This file is the message-level round driver shared by the three protocols
// that run on a live message engine: the dating handshake (RunLive),
// spreader/stifler spreading on a graph (RunTopology) and conflicting-rumor
// consensus (RunConsensus). The driver owns everything that is not protocol:
// the engine choice and its construction, the state-partition count, the
// round cap and the round loop with its traffic bookkeeping. Each spec keeps
// only its validation, its state block, its step function and its stop rule.

import (
	"fmt"

	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/run"
	"repro/internal/simnet"
)

// LiveEngine selects the execution substrate for a message-level run.
type LiveEngine int

const (
	// LiveGoroutine is the legacy engine: one goroutine per peer.
	// Perfect-sync only.
	LiveGoroutine LiveEngine = iota
	// LiveSharded is the internal/live runtime: a fixed pool of shard
	// workers over flat message buffers. It scales to millions of peers,
	// is bit-identical for every shard count, and accepts a NetModel.
	LiveSharded
)

// LiveOptions carries the axes of a message-level run that are orthogonal
// to the protocol: the seed, the execution substrate, its worker count, the
// network model and the observer. Under repro.Run these come from the run
// options; RunLive, RunTopology and RunConsensus take them explicitly so
// direct callers state the same separation.
type LiveOptions struct {
	Seed uint64
	// Engine picks the substrate; the zero value is the goroutine engine.
	// All engines share the sharded runtime's per-peer stream derivation,
	// so the engine choice never changes trajectories.
	Engine LiveEngine
	// Shards is the sharded engine's worker count (0 = GOMAXPROCS). The
	// run's results are bit-identical for every value: shards are a pure
	// speed knob.
	Shards int
	// Net plugs a network model — latency, loss, churn — into the sharded
	// engine; nil is the paper's perfect-sync model. The goroutine engine
	// rejects non-nil models.
	Net live.NetModel
	// Obs, when non-nil, receives phase spans and per-round gauges from the
	// sharded engine, plus the protocol's own gauges on a "topology" or
	// "consensus" track. Observers are read-only: attaching one never
	// changes results.
	Obs *obs.Observer
}

// TopologyOptions is the options type of RunTopology, kept as a name for
// callers that spell it.
type TopologyOptions = LiveOptions

// liveOptions maps the run options onto a live spec's options: the runtime
// seed derives from the root seed under domain, WithEngine picks the
// substrate (default: the sharded runtime), WithWorkers sets the shard
// count and WithNet the network model.
func liveOptions(o *run.Options, domain uint64) LiveOptions {
	lo := LiveOptions{
		Seed:   run.SeedFor(o.Seed, domain),
		Engine: LiveSharded,
		Shards: o.Workers,
		Net:    o.Net,
		Obs:    o.Obs,
	}
	if o.Engine == run.EngineGoroutine {
		lo.Engine = LiveGoroutine
	}
	return lo
}

// engineReport is the unified report of a run on a message engine: the
// engine's traffic counters supply the message totals.
func engineReport(rounds int, completed bool, traj, sent []int, t simnet.Stats, detail any) run.Report {
	return run.Report{
		Rounds:     rounds,
		Completed:  completed,
		Trajectory: traj,
		Sent:       sent,
		Messages:   t.Sent,
		Dropped:    t.Dropped,
		Clamped:    t.Clamped,
		Detail:     detail,
	}
}

// roundCap is the default round cap of the round-synchronous protocols:
// 64 rounds plus 64 per doubling of n, i.e. 64·(1+⌈log2 n⌉) — far beyond
// the Θ(log n) spreading time, so hitting it means the protocol stalled.
func roundCap(n int) int {
	c := 64
	for v := 1; v < n; v <<= 1 {
		c += 64
	}
	return c
}

// liveDriver runs a protocol on a message engine. A spec creates it with
// newLiveDriver, sizes its state block by parts, builds the engine around
// its step function with start and runs the rounds with loop.
type liveDriver struct {
	n         int
	o         LiveOptions
	maxRounds int
	// parts is the state-partition count: one block per shard of the
	// sharded runtime (live.EffectiveShards), so each block has exactly one
	// writing worker; the goroutine engine uses a single block.
	parts int
	run   func(rounds int) simnet.Stats
}

// liveRun is what the driver's round loop records for every protocol.
type liveRun struct {
	rounds    int
	completed bool
	// sent is the number of messages routed per protocol round.
	sent    []int
	traffic simnet.Stats
}

// newLiveDriver checks the engine choice against the network model and
// applies the round-cap default (maxRounds <= 0 means roundCap(n)).
func newLiveDriver(n, maxRounds int, o LiveOptions) (*liveDriver, error) {
	d := &liveDriver{n: n, o: o, maxRounds: maxRounds, parts: 1}
	switch o.Engine {
	case LiveGoroutine:
		if o.Net != nil {
			return nil, fmt.Errorf("gossip: network models require the sharded engine")
		}
	case LiveSharded:
		d.parts = live.EffectiveShards(n, o.Shards)
	default:
		return nil, fmt.Errorf("gossip: unknown live engine %d", o.Engine)
	}
	if d.maxRounds <= 0 {
		d.maxRounds = roundCap(n)
	}
	return d, nil
}

// start builds the engine around step. The goroutine engine derives its
// per-peer streams exactly as the sharded runtime does, so the engine
// choice never changes results under perfect sync.
func (d *liveDriver) start(step live.StepFunc) error {
	if d.o.Engine == LiveGoroutine {
		streams := make([]*rng.Stream, d.n)
		for i := range streams {
			streams[i] = rng.New(live.PeerSeed(d.o.Seed, i))
		}
		eng, err := simnet.NewLiveWithStreams(streams, adaptStep(d.n, step))
		if err != nil {
			return err
		}
		d.run = eng.Run
		return nil
	}
	rt, err := live.New(live.Config{
		N:      d.n,
		Seed:   d.o.Seed,
		Step:   step,
		Shards: d.o.Shards,
		Net:    d.o.Net,
		Obs:    d.o.Obs,
	})
	if err != nil {
		return err
	}
	d.run = rt.Run
	return nil
}

// loop runs prologue network rounds, then up to maxRounds protocol rounds
// of per network rounds each. After each protocol round it calls sample
// with the 1-based round number, between rounds while the engine is
// quiescent; sample returns true when the protocol has reached its goal,
// which completes the run. The prologue's messages count toward the first
// round.
func (d *liveDriver) loop(prologue, per int, sample func(round int) bool) liveRun {
	var r liveRun
	if prologue > 0 {
		d.run(prologue)
	}
	var prevSent int64
	for round := 1; round <= d.maxRounds; round++ {
		r.traffic = d.run(per)
		r.sent = append(r.sent, int(r.traffic.Sent-prevSent))
		prevSent = r.traffic.Sent
		r.rounds = round
		if sample(round) {
			r.completed = true
			break
		}
	}
	return r
}

// adaptStep converts the emit-style step back to the slice-returning shape
// of the goroutine engine, so both substrates run the same protocol code.
// Each peer's emit function is built once, here: one built per step call
// would escape to the heap on every call, since step is opaque to the
// compiler. Peer i's goroutine is the only one touching outs[i].
func adaptStep(n int, step live.StepFunc) simnet.StepFunc {
	outs := make([][]simnet.Message, n)
	emits := make([]func(simnet.Message), n)
	for i := range emits {
		emits[i] = func(m simnet.Message) { outs[i] = append(outs[i], m) }
	}
	return func(node, round int, inbox []simnet.Message, s *rng.Stream) []simnet.Message {
		step(node, round, inbox, s, emits[node])
		out := outs[node]
		outs[node] = nil
		return out
	}
}
