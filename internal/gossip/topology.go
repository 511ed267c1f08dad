package gossip

// This file is graph-constrained spreading: the Maki–Thompson spreader/
// stifler protocol (ignorant → spreader → stifler) running on a CSR topology
// from internal/graph instead of the any-to-any rendezvous assumption. Each
// round every spreader contacts one *neighbor*; contacting a peer that
// already knows the rumor stifles the initiator with probability Alpha, and
// a spreader may also cease spontaneously with probability Delta — so unlike
// the push/pull protocols the epidemic can die out before reaching everyone,
// and the final spread fraction becomes the quantity of interest.

import (
	"fmt"

	"repro/internal/bandwidth"
	"repro/internal/exch"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/run"
	"repro/internal/simnet"
)

// Message kinds of the topology protocol, disjoint from the dating handshake
// (1–4) and the async exchange (8–9) so ByKind traffic stays legible.
const (
	// kindTopoContact is a spreader's contact carrying the rumor.
	kindTopoContact uint8 = 10
	// kindTopoKnown is the "already knew it" reply that may stifle the
	// contacting spreader.
	kindTopoKnown uint8 = 11
)

// SIR peer states. Informed means spreader or stifler: a stifler knows the
// rumor, it just no longer forwards it.
const (
	topoIgnorant uint8 = iota
	topoSpreader
	topoStifler
)

// TopologyConfig parameterizes graph-constrained spreader/stifler spreading.
// The zero Lambda means 1 (the classic Maki–Thompson acceptance); Alpha and
// Delta default to 0, under which the protocol degenerates to plain push
// over the graph and — on the complete graph — to the any-to-any push
// protocol's final spread.
type TopologyConfig struct {
	// Graph is the contact topology; every contact is drawn over the
	// initiating peer's neighbor row.
	Graph *graph.CSR
	// Profile, with Weighted set, biases each neighbor draw proportional to
	// the neighbor's mean bandwidth (bin+bout)/2 — the dating service's
	// heterogeneity knob transplanted to the graph setting. Empty profile or
	// Weighted false means uniform neighbor choice.
	Profile  bandwidth.Profile
	Weighted bool
	// Source is the initially spreading peer.
	Source int
	// Alpha is the stifling probability: a spreader told "already knew" by
	// its contact turns stifler with this probability.
	Alpha float64
	// Lambda is the acceptance probability: an ignorant contacted by a
	// spreader turns spreader with this probability (0 means 1).
	Lambda float64
	// Delta is the spontaneous per-round cessation probability of a
	// spreader.
	Delta float64
	// MaxRounds caps the run (0 = generous log-based default).
	MaxRounds int
}

// TopologyOptions carries the axes of a topology run that are orthogonal to
// the protocol; under repro.Run they come from the run options.
type TopologyOptions struct {
	Seed uint64
	// Engine picks the substrate; the zero value is the goroutine engine.
	// All engines share the sharded runtime's per-peer stream derivation, so
	// the engine choice never changes trajectories.
	Engine LiveEngine
	// Concurrent selects the goroutine engine's concurrent mode; ignored by
	// the sharded engine.
	Concurrent bool
	// Shards is the sharded engine's worker count (0 = GOMAXPROCS); every
	// value is bit-identical.
	Shards int
	// Net plugs a network model into the sharded engine; nil is perfect
	// sync. The goroutine engine rejects non-nil models.
	Net live.NetModel
	// Obs, when non-nil, receives the runtime's phase spans plus the
	// protocol's per-round spreader/stifler gauges on a "topology" track.
	Obs *obs.Observer
}

// TopologyResult reports a graph-constrained spreading run.
type TopologyResult struct {
	Rounds    int
	Completed bool
	// History is the informed count (spreaders + stiflers) after each round.
	History []int
	// SpreaderHist / StiflerHist split the informed count by state.
	SpreaderHist []int
	StiflerHist  []int
	// SentHistory is the number of messages routed per round.
	SentHistory []int
	// FinalSpread is the informed fraction when the run stopped — the
	// epidemic-size observable of the rumor literature (< 1 when stifling
	// killed the rumor early).
	FinalSpread float64
	Traffic     simnet.Stats
}

// topoState is the per-peer SIR state, laid out as one contiguous cell block
// per shard — the owning shard is the only writer of its block, so blocks of
// different shards never share a slice (the -race suite pins this layout).
// The partition mirrors the runtime's exactly via live.EffectiveShards.
type topoState struct {
	part  exch.Partition
	cells [][]uint8
}

func newTopoState(n, parts int) *topoState {
	st := &topoState{part: exch.Partition{N: n, Parts: parts}}
	st.cells = make([][]uint8, parts)
	for o := range st.cells {
		lo, hi := st.part.Range(o)
		st.cells[o] = make([]uint8, hi-lo)
	}
	return st
}

func (st *topoState) get(i int) uint8 {
	o := st.part.Owner(i)
	return st.cells[o][i-st.part.Start(o)]
}

func (st *topoState) set(i int, v uint8) {
	o := st.part.Owner(i)
	st.cells[o][i-st.part.Start(o)] = v
}

// counts tallies the states; called by the coordinator between rounds, when
// the shards are quiescent.
func (st *topoState) counts() (spreaders, stiflers int) {
	for _, cell := range st.cells {
		for _, v := range cell {
			switch v {
			case topoSpreader:
				spreaders++
			case topoStifler:
				stiflers++
			}
		}
	}
	return
}

// topoStep builds the per-peer spreader/stifler state machine. All
// transition randomness is drawn from the acting peer's own stream while its
// inbox is processed in canonical order, so trajectories are bit-identical
// for every shard count. Draw order per round is fixed: inbox decisions
// first (acceptance for contacts, stifling for replies), then the cessation
// draw, then the contact draw — and Bernoulli consumes no randomness at its
// degenerate probabilities, so Alpha = 0 and Lambda = 1 runs stay aligned
// with runs that never consult those knobs.
func topoStep(sampler graph.Sampler, st *topoState, alpha, lambda, delta float64) live.StepFunc {
	return func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) {
		state := st.get(node)
		for _, m := range inbox {
			switch m.Kind {
			case kindTopoContact:
				switch state {
				case topoIgnorant:
					if s.Bernoulli(lambda) {
						state = topoSpreader
					}
				default: // spreader or stifler: already knew
					emit(simnet.Message{To: m.From, Kind: kindTopoKnown})
				}
			case kindTopoKnown:
				if state == topoSpreader && s.Bernoulli(alpha) {
					state = topoStifler
				}
			}
		}
		if state == topoSpreader {
			if s.Bernoulli(delta) {
				state = topoStifler
			} else if nb := sampler.Pick(node, s); nb >= 0 {
				emit(simnet.Message{To: nb, Kind: kindTopoContact, A: 1})
			}
		}
		st.set(node, state)
	}
}

// topoSampler builds the neighbor sampler the config asks for.
func topoSampler(cfg TopologyConfig) (graph.Sampler, error) {
	if !cfg.Weighted {
		return graph.NewUniformNeighbors(cfg.Graph)
	}
	n := cfg.Graph.N()
	if cfg.Profile.N() != n {
		return nil, fmt.Errorf("gossip: weighted topology needs a profile over %d nodes, got %d", n, cfg.Profile.N())
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(cfg.Profile.In[i]+cfg.Profile.Out[i]) / 2
	}
	return graph.NewWeightedNeighbors(cfg.Graph, w)
}

// RunTopology executes graph-constrained spreader/stifler spreading on a
// live message engine.
func RunTopology(cfg TopologyConfig, o TopologyOptions) (TopologyResult, error) {
	if cfg.Graph == nil || cfg.Graph.N() == 0 {
		return TopologyResult{}, fmt.Errorf("gossip: topology run needs a graph")
	}
	n := cfg.Graph.N()
	if cfg.Source < 0 || cfg.Source >= n {
		return TopologyResult{}, fmt.Errorf("gossip: source %d out of range [0,%d)", cfg.Source, n)
	}
	// Written as negated in-range tests so NaN rates are rejected too.
	if !(cfg.Alpha >= 0 && cfg.Alpha <= 1 && cfg.Lambda >= 0 && cfg.Lambda <= 1 && cfg.Delta >= 0 && cfg.Delta <= 1) {
		return TopologyResult{}, fmt.Errorf("gossip: topology rates must lie in [0,1], got alpha=%v lambda=%v delta=%v",
			cfg.Alpha, cfg.Lambda, cfg.Delta)
	}
	if o.Engine == LiveGoroutine && o.Net != nil {
		return TopologyResult{}, fmt.Errorf("gossip: network models require the sharded engine")
	}
	lambda := cfg.Lambda
	if lambda == 0 {
		lambda = 1
	}
	sampler, err := topoSampler(cfg)
	if err != nil {
		return TopologyResult{}, err
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 64
		for v := 1; v < n; v <<= 1 {
			maxRounds += 64
		}
	}

	// State blocks match the runtime's shard partition, so each block has
	// exactly one writing worker; the goroutine engine steps sequentially
	// per peer and uses a single block.
	parts := 1
	if o.Engine == LiveSharded {
		parts = live.EffectiveShards(n, o.Shards)
	}
	st := newTopoState(n, parts)
	st.set(cfg.Source, topoSpreader)

	step := topoStep(sampler, st, cfg.Alpha, lambda, cfg.Delta)
	var runRounds func(rounds int) simnet.Stats
	maxDelay := 1
	switch o.Engine {
	case LiveGoroutine:
		streams := make([]*rng.Stream, n)
		for i := range streams {
			streams[i] = rng.New(live.PeerSeed(o.Seed, i))
		}
		eng, err := simnet.NewLiveWithStreams(streams, adaptStep(step))
		if err != nil {
			return TopologyResult{}, err
		}
		if o.Concurrent {
			runRounds = eng.Run
		} else {
			runRounds = eng.RunSequential
		}
	case LiveSharded:
		rt, err := live.New(live.Config{
			N:      n,
			Seed:   o.Seed,
			Step:   step,
			Shards: o.Shards,
			Net:    o.Net,
			Obs:    o.Obs,
		})
		if err != nil {
			return TopologyResult{}, err
		}
		runRounds = rt.Run
		if o.Net != nil {
			maxDelay = o.Net.MaxDelay()
		}
	default:
		return TopologyResult{}, fmt.Errorf("gossip: unknown live engine %d", o.Engine)
	}

	tr := o.Obs.Track("topology", 1)
	gSpread := tr.Gauge("spreaders")
	gStifle := tr.Gauge("stiflers")

	var res TopologyResult
	var prevSent int64
	informed := 0
	quiet := 0
	for round := 1; round <= maxRounds; round++ {
		res.Traffic = runRounds(1)
		res.SentHistory = append(res.SentHistory, int(res.Traffic.Sent-prevSent))
		prevSent = res.Traffic.Sent
		spreaders, stiflers := st.counts()
		informed = spreaders + stiflers
		res.Rounds = round
		res.History = append(res.History, informed)
		res.SpreaderHist = append(res.SpreaderHist, spreaders)
		res.StiflerHist = append(res.StiflerHist, stiflers)
		gSpread.Sample(round, int64(spreaders))
		gStifle.Sample(round, int64(stiflers))
		tr.Barrier()
		if spreaders == 0 {
			// No spreader emitted a contact this round; once that holds for
			// maxDelay consecutive rounds no stale contact from an earlier
			// round is in flight either, so the epidemic is over. (Informed
			// peers still answer contacts, so full spread alone does not
			// quiesce traffic — stop there too.)
			quiet++
			if quiet >= maxDelay {
				res.Completed = true
				break
			}
		} else {
			quiet = 0
			if informed == n {
				res.Completed = true
				break
			}
		}
	}
	res.FinalSpread = float64(informed) / float64(n)
	return res, nil
}

// Protocol implements run.Spec.
func (c TopologyConfig) Protocol() string { return "topology" }

// Execute implements run.Spec: the runtime seed derives from the root seed
// under DomainTopology, WithEngine picks the substrate (default: the sharded
// runtime), WithWorkers sets the shard count and WithNet the network model
// — the engine and the shard count are pure speed knobs under perfect
// sync. Trajectory is the informed-peer history; Detail the full
// TopologyResult (spreader/stifler split, final spread fraction).
func (c TopologyConfig) Execute(o *run.Options) (run.Report, error) {
	topts := TopologyOptions{
		Seed: run.SeedFor(o.Seed, run.DomainTopology),
		Net:  o.Net,
		Obs:  o.Obs,
	}
	switch o.Engine {
	case run.EngineGoroutine:
		topts.Engine = LiveGoroutine
		topts.Concurrent = true
	default: // EngineDefault, EngineSharded
		topts.Engine = LiveSharded
		topts.Shards = o.Workers
	}
	res, err := RunTopology(c, topts)
	if err != nil {
		return run.Report{}, err
	}
	return run.Report{
		Rounds:     res.Rounds,
		Completed:  res.Completed,
		Trajectory: res.History,
		Sent:       res.SentHistory,
		Messages:   res.Traffic.Sent,
		Dropped:    res.Traffic.Dropped,
		Clamped:    res.Traffic.Clamped,
		Detail:     res,
	}, nil
}
