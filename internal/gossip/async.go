package gossip

// This file is the asynchronous rumor-spreading protocol on the clockless
// runtime of internal/async: push&pull gossip where each peer contacts a
// partner at the ticks of its own exponential clock, instead of in globally
// synchronous rounds. The clock rate comes from the peer's heterogeneity
// profile — the regime the source paper's profile machinery models — so a
// high-bandwidth peer gossips proportionally more often, not just with more
// fan-out per round.

import (
	"fmt"
	"math"

	"repro/internal/async"
	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/run"
	"repro/internal/simnet"
)

// Message kinds of the asynchronous push&pull exchange, disjoint from the
// dating handshake's kinds so ByKind traffic stays legible.
const (
	// kindContact is a clock-firing contact; A carries the sender's
	// informed bit (1 = the contact pushes the rumor).
	kindContact uint8 = 8
	// kindReply is the pull half: an informed peer answering an uninformed
	// contact with the rumor.
	kindReply uint8 = 9
)

// AsyncConfig parameterizes asynchronous push&pull spreading — the
// clockless counterpart of LiveConfig. Each peer fires at the points of a
// Poisson process whose rate is the mean of its profile bandwidths,
// (bin+bout)/2; at each firing it contacts one partner drawn from the
// selection distribution, pushing the rumor if it knows it and pulling a
// reply if the partner does. With a unit profile the mean inter-firing gap
// is one time unit — the expected synchronous round — so the spread curve
// is directly comparable to the round-synchronous protocols'.
type AsyncConfig struct {
	Profile bandwidth.Profile
	// Selector defaults to uniform over the profile's nodes.
	Selector core.Selector
	// Source is the initially informed peer.
	Source int
	// BucketWidth is the calendar bucket width in clock-time units (0 = 1):
	// the granularity at which shards synchronize, and the quantum message
	// arrivals are rounded up to.
	BucketWidth float64
	// Latency is each message's flight time in clock-time units (0 =
	// BucketWidth).
	Latency float64
	// MaxTime caps the run in clock-time units (0 = a generous log-based
	// default, far beyond any plausible completion time).
	MaxTime float64
}

// AsyncResult reports an asynchronous spreading run.
type AsyncResult struct {
	// Buckets is the number of calendar buckets executed; Time is the
	// simulated clock time they span (Buckets * BucketWidth).
	Buckets   int
	Time      float64
	Completed bool
	// History is the informed-peer count at each bucket boundary.
	History []int
	// SentHistory is the number of messages emitted per bucket.
	SentHistory []int
	// Fired is the total number of clock firings executed.
	Fired   int64
	Traffic simnet.Stats
}

// AsyncOptions carries the axes of an async run that are orthogonal to the
// protocol; under repro.Run they come from the run options.
type AsyncOptions struct {
	Seed uint64
	// Shards is the runtime's worker count (0 = GOMAXPROCS); every value is
	// bit-identical.
	Shards int
	// Obs, when non-nil, receives phase spans and per-bucket gauges from the
	// runtime. Observers are read-only: attaching one never changes results.
	Obs *obs.Observer
}

// asyncRates maps a heterogeneity profile to per-peer clock rates: peer i
// fires at rate (bin(i)+bout(i))/2, so bandwidth heterogeneity becomes
// firing-frequency heterogeneity.
func asyncRates(p bandwidth.Profile) []float64 {
	rates := make([]float64, p.N())
	for i := range rates {
		rates[i] = float64(p.In[i]+p.Out[i]) / 2
	}
	return rates
}

// RunAsync executes asynchronous push&pull rumor spreading on the clockless
// runtime.
func RunAsync(cfg AsyncConfig, o AsyncOptions) (AsyncResult, error) {
	n := cfg.Profile.N()
	if n == 0 {
		return AsyncResult{}, fmt.Errorf("gossip: async run needs a profile")
	}
	if _, err := cfg.Profile.Ratio(); err != nil {
		return AsyncResult{}, err
	}
	if cfg.Source < 0 || cfg.Source >= n {
		return AsyncResult{}, fmt.Errorf("gossip: source %d out of range [0,%d)", cfg.Source, n)
	}
	sel := cfg.Selector
	if sel == nil {
		u, err := core.NewUniformSelector(n)
		if err != nil {
			return AsyncResult{}, err
		}
		sel = u
	}
	if sel.N() != n {
		return AsyncResult{}, fmt.Errorf("gossip: selector addresses %d nodes, profile has %d", sel.N(), n)
	}
	width := cfg.BucketWidth
	if width == 0 {
		width = 1
	}
	maxTime := cfg.MaxTime
	if maxTime <= 0 {
		maxTime = 64
		for v := 1; v < n; v <<= 1 {
			maxTime += 64
		}
	}
	maxBuckets := int(math.Ceil(maxTime / width))

	// Per-peer protocol state: peer i writes only informed[i] (its owner
	// shard), so concurrent shards never race; the bucket barrier publishes
	// the writes to the coordinator loop below.
	informed := make([]bool, n)
	informed[cfg.Source] = true

	rt, err := async.New(async.Config{
		N:           n,
		Seed:        o.Seed,
		Rates:       asyncRates(cfg.Profile),
		BucketWidth: width,
		Latency:     cfg.Latency,
		Shards:      o.Shards,
		Obs:         o.Obs,
		Fire: func(peer, fire int, t float64, s *rng.Stream, emit func(simnet.Message)) {
			bit := int64(0)
			if informed[peer] {
				bit = 1
			}
			emit(simnet.Message{To: sel.Pick(s), Kind: kindContact, A: bit})
		},
		Recv: func(peer int, m simnet.Message, emit func(simnet.Message)) {
			switch m.Kind {
			case kindContact:
				if m.A == 1 {
					informed[peer] = true // push
				} else if informed[peer] {
					emit(simnet.Message{To: m.From, Kind: kindReply, A: 1}) // pull
				}
			case kindReply:
				informed[peer] = true
			}
		},
	})
	if err != nil {
		return AsyncResult{}, err
	}

	var res AsyncResult
	var prevSent int64
	for b := 0; b < maxBuckets; b++ {
		res.Traffic = rt.RunBuckets(1)
		res.SentHistory = append(res.SentHistory, int(res.Traffic.Sent-prevSent))
		prevSent = res.Traffic.Sent
		count := 0
		for i := 0; i < n; i++ {
			if informed[i] {
				count++
			}
		}
		res.Buckets = b + 1
		res.History = append(res.History, count)
		if count == n {
			// Replies already in flight no longer matter: every peer knows
			// the rumor, so the run can stop at this boundary.
			res.Completed = true
			break
		}
	}
	res.Time = float64(res.Buckets) * width
	res.Fired = rt.Fired()
	return res, nil
}

// Protocol implements run.Spec.
func (c AsyncConfig) Protocol() string { return "async" }

// Execute implements run.Spec: the runtime seed derives from the root seed
// under DomainAsync and WithWorkers sets the shard count (a pure speed
// knob — every count is bit-identical). The async runtime carries its own
// latency model in AsyncConfig.Latency, so WithNet is rejected rather than
// silently ignored; WithEngine does not apply and is ignored. Trajectory
// is the informed-peer count per bucket; Detail the full AsyncResult.
func (c AsyncConfig) Execute(o *run.Options) (run.Report, error) {
	if o.Net != nil {
		return run.Report{}, fmt.Errorf("gossip: async runs model latency via AsyncConfig.Latency, not WithNet")
	}
	res, err := RunAsync(c, AsyncOptions{
		Seed:   run.SeedFor(o.Seed, run.DomainAsync),
		Shards: o.Workers,
		Obs:    o.Obs,
	})
	if err != nil {
		return run.Report{}, err
	}
	return run.Report{
		Rounds:     res.Buckets,
		Completed:  res.Completed,
		Trajectory: res.History,
		Sent:       res.SentHistory,
		Messages:   res.Traffic.Sent,
		Dropped:    res.Traffic.Dropped,
		Clamped:    res.Traffic.Clamped,
		Detail:     res,
	}, nil
}
