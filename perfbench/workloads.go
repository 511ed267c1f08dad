package main

// The four workloads: how each one's inputs are generated from the seed,
// how it is run through repro.Run, how it is run directly (without the
// facade) and how its report is checked.

import (
	"fmt"

	"repro"
	"repro/internal/bandwidth"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/run"
	"repro/internal/sim"
)

// Input-generation domains: the profile and the graph draw from streams
// derived from the benchmark seed, so one seed fixes every input.
const (
	domainProfile uint64 = 0xE1
	domainGraph   uint64 = 0xE2
)

// Zipf profile shape shared by rumor-dating, live-sync and async-poisson:
// ZipfBandwidth(n, exponent 1, maxB 8, C 2).
const (
	zipfExp  = 1.0
	zipfMaxB = 8
	zipfC    = 2.0
)

// baM is the Barabási–Albert attachment count of topology-geom.
const baM = 3

// topoNet is topology-geom's network: geometric per-message delay, so the
// runtime keeps a multi-slot delay ring.
var topoNet = live.GeomLatency{P: 0.5, Cap: 4}

// workload is one benchmark input family.
type workload struct {
	name string
	// n is the benchmark size; the smoke test overrides it.
	n int
	// runtime names the message runtime the workload enters ("" for the
	// round-abstract dating path), which decides its phase metrics.
	runtime string
	// pins hold the trajectory digest and round count at defaultSeed, at
	// the benchmark size and at the smoke test's size.
	pins []pin
	// setup builds the inputs a user hands to repro.Run.
	setup func(seed uint64, n int) (*inputs, error)
}

// pin is a reference outcome: the trajectory digest and the round count
// of a run of n peers.
type pin struct {
	n      int
	digest string
	rounds int
}

// defaultSeed is the seed whose outcomes are pinned.
const defaultSeed = 7

// smokeN is the size the benchmark's own test runs every workload at.
const smokeN = 20_000

// inputs is one workload's generated input set.
type inputs struct {
	spec repro.Spec
	// opts are the run options beyond seed and workers.
	opts []repro.RunOption
	// profile is the bandwidth profile (empty for topology-geom).
	profile bandwidth.Profile
	// graph is the contact graph (nil except for topology-geom).
	graph *graph.CSR
	// direct runs the same protocol without the facade: the gossip entry
	// point named by via, with the options repro.Run would derive.
	direct func(seed uint64, workers int) (outcome, error)
	via    string
	// check validates a report beyond digest and completion.
	check func(rep repro.Report) error
}

// outcome is the part of a run every check compares.
type outcome struct {
	digest    string
	rounds    int
	messages  int64
	completed bool
}

func outcomeOf(rep repro.Report) outcome {
	return outcome{
		digest:    sim.TrajectoryDigest(rep.Trajectory),
		rounds:    rep.Rounds,
		messages:  rep.Messages,
		completed: rep.Completed,
	}
}

var workloads = []workload{
	{
		name:  "rumor-dating",
		n:     200_000,
		pins:  []pin{{200_000, "7b975273e2ad736a", 19}, {smokeN, "94949e6b39dfb853", 15}},
		setup: setupRumor,
	},
	{
		name:    "live-sync",
		n:       100_000,
		runtime: "live",
		pins:    []pin{{100_000, "07350bb75ff3928d", 16}, {smokeN, "cdfa842bcd3f4ecc", 14}},
		setup:   setupLive,
	},
	{
		name:    "topology-geom",
		n:       1_000_000,
		runtime: "live",
		pins:    []pin{{1_000_000, "c0d8c4048c8090fe", 103}, {smokeN, "a385ff0ece4449b9", 74}},
		setup:   setupTopology,
	},
	{
		name:    "async-poisson",
		n:       200_000,
		runtime: "async",
		pins:    []pin{{200_000, "6987175647d88b82", 10}, {smokeN, "f4e894b07c77c8c8", 9}},
		setup:   setupAsync,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// zipfProfile builds the shared Zipf bandwidth profile from the seed.
func zipfProfile(seed uint64, n int) (bandwidth.Profile, error) {
	return repro.ZipfBandwidth(n, zipfExp, zipfMaxB, zipfC, rng.New(rng.Derive(seed, domainProfile)))
}

// maxBandwidth returns the profile's largest bin and bout.
func maxBandwidth(p bandwidth.Profile) (maxIn, maxOut int) {
	for i := range p.In {
		maxIn = max(maxIn, p.In[i])
		maxOut = max(maxOut, p.Out[i])
	}
	return maxIn, maxOut
}

func setupRumor(seed uint64, n int) (*inputs, error) {
	p, err := zipfProfile(seed, n)
	if err != nil {
		return nil, err
	}
	cfg := gossip.Config{Algorithm: gossip.Dating, Profile: p}
	maxIn, maxOut := maxBandwidth(p)
	return &inputs{
		spec:    cfg,
		profile: p,
		via:     "Config.Execute",
		direct: func(seed uint64, workers int) (outcome, error) {
			// gossip.Run takes no worker budget, so the direct call is the
			// spec's own Execute with the options repro.Run would build.
			b, err := par.NewBudget(workers)
			if err != nil {
				return outcome{}, err
			}
			rep, err := cfg.Execute(&run.Options{Seed: seed, Workers: workers, Budget: b})
			if err != nil {
				return outcome{}, err
			}
			return outcomeOf(rep), nil
		},
		check: func(rep repro.Report) error {
			// The paper's bandwidth guarantee: no node ever serves or
			// receives more than its bout / bin in one round.
			if rep.MaxInLoad > maxIn || rep.MaxOutLoad > maxOut {
				return fmt.Errorf("load (%d in, %d out) exceeds the profile's max (%d, %d)",
					rep.MaxInLoad, rep.MaxOutLoad, maxIn, maxOut)
			}
			return nil
		},
	}, nil
}

func setupLive(seed uint64, n int) (*inputs, error) {
	p, err := zipfProfile(seed, n)
	if err != nil {
		return nil, err
	}
	cfg := gossip.LiveConfig{Profile: p}
	maxIn, _ := maxBandwidth(p)
	return &inputs{
		spec:    cfg,
		opts:    []repro.RunOption{repro.WithEngine(repro.LiveSharded)},
		profile: p,
		via:     "RunLive",
		direct: func(seed uint64, workers int) (outcome, error) {
			res, err := gossip.RunLive(cfg, gossip.LiveOptions{
				Seed:   run.SeedFor(seed, run.DomainLive),
				Engine: gossip.LiveSharded,
				Shards: workers,
			})
			if err != nil {
				return outcome{}, err
			}
			return outcome{
				digest:    sim.TrajectoryDigest(res.History),
				rounds:    res.DatingRounds,
				messages:  res.Traffic.Sent,
				completed: res.Completed,
			}, nil
		},
		check: func(rep repro.Report) error {
			// Under perfect sync no node receives more payloads in one
			// dating round than its bin.
			if rep.MaxInLoad > maxIn {
				return fmt.Errorf("payload load %d exceeds the profile's max bin %d", rep.MaxInLoad, maxIn)
			}
			if rep.Dropped != 0 || rep.Clamped != 0 {
				return fmt.Errorf("perfect-sync run dropped %d and clamped %d messages", rep.Dropped, rep.Clamped)
			}
			return nil
		},
	}, nil
}

func setupTopology(seed uint64, n int) (*inputs, error) {
	g, err := graph.BarabasiAlbert(n, baM, rng.Derive(seed, domainGraph))
	if err != nil {
		return nil, err
	}
	cfg := gossip.TopologyConfig{Graph: g, Alpha: 0.25}
	return &inputs{
		spec:  cfg,
		opts:  []repro.RunOption{repro.WithEngine(repro.LiveSharded), repro.WithNet(topoNet)},
		graph: g,
		via:   "RunTopology",
		direct: func(seed uint64, workers int) (outcome, error) {
			res, err := gossip.RunTopology(cfg, gossip.TopologyOptions{
				Seed:   run.SeedFor(seed, run.DomainTopology),
				Engine: gossip.LiveSharded,
				Shards: workers,
				Net:    topoNet,
			})
			if err != nil {
				return outcome{}, err
			}
			return outcome{
				digest:    sim.TrajectoryDigest(res.History),
				rounds:    res.Rounds,
				messages:  res.Traffic.Sent,
				completed: res.Completed,
			}, nil
		},
		check: func(rep repro.Report) error {
			res, ok := rep.Detail.(gossip.TopologyResult)
			if !ok {
				return fmt.Errorf("topology report carries %T", rep.Detail)
			}
			// Stifling stops the rumor early, but on a connected BA graph
			// it always reaches a clear majority of the peers.
			if res.FinalSpread < 0.5 || res.FinalSpread > 1 {
				return fmt.Errorf("final spread %.4f outside [0.5, 1]", res.FinalSpread)
			}
			return nil
		},
	}, nil
}

func setupAsync(seed uint64, n int) (*inputs, error) {
	p, err := zipfProfile(seed, n)
	if err != nil {
		return nil, err
	}
	cfg := gossip.AsyncConfig{Profile: p}
	return &inputs{
		spec:    cfg,
		profile: p,
		via:     "RunAsync",
		direct: func(seed uint64, workers int) (outcome, error) {
			res, err := gossip.RunAsync(cfg, gossip.AsyncOptions{
				Seed:   run.SeedFor(seed, run.DomainAsync),
				Shards: workers,
			})
			if err != nil {
				return outcome{}, err
			}
			return outcome{
				digest:    sim.TrajectoryDigest(res.History),
				rounds:    res.Buckets,
				messages:  res.Traffic.Sent,
				completed: res.Completed,
			}, nil
		},
		check: func(rep repro.Report) error {
			if rep.Dropped != 0 || rep.Clamped != 0 {
				return fmt.Errorf("async run dropped %d and clamped %d messages", rep.Dropped, rep.Clamped)
			}
			return nil
		},
	}, nil
}
