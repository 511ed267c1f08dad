// Package repro is a Go implementation of the heterogeneous dating service
// and its rumor-spreading application from:
//
//	Olivier Beaumont, Philippe Duchon, Miroslaw Korzeniowski.
//	"Heterogenous dating service with application to rumor spreading."
//	IEEE IPDPS 2008 (INRIA research report RR-6168).
//
// The dating service is a fully decentralized mechanism that pairs offers of
// outgoing bandwidth with requests for incoming bandwidth, never exceeding
// any node's declared capabilities. With high probability it arranges a
// constant fraction of everything a centralized matchmaker could, for *any*
// common selection distribution — including the highly non-uniform one a DHT
// induces — which is what makes it practical: unlike classical PUSH/PULL
// gossip, it never needs the ability to pick a peer uniformly at random.
//
// # The unified Run API
//
// Every protocol of the repository runs through one seed-first entrypoint:
//
//	rep, err := repro.Run(repro.RumorConfig{N: 1000, Algorithm: repro.Dating},
//	    repro.WithSeed(42), repro.WithWorkers(8))
//	fmt.Println(rep.Rounds, rep.Completed, rep.Messages)
//
// A protocol config — RumorConfig, MultiRumorConfig, LiveConfig,
// AsyncConfig, TopologyConfig, ConsensusConfig, MongerConfig, StorageConfig,
// HandshakeConfig — is a Spec. Configs carry only the protocol; the axes
// orthogonal to it travel as options: WithSeed (roots every random stream),
// WithWorkers (a shared worker budget, and the shard count of the message
// runtimes), WithEngine (the live substrate: sharded by default,
// goroutine-per-peer on request), WithNet (latency, loss, churn and
// ring-asymmetry network models for live runs), WithTrace (per-round
// replay) and WithObserver (read-only instrumentation). Every protocol
// emits the same Report, with the protocol-native result in Report.Detail.
//
// A Report is a pure function of (spec, seed): the worker count, the engine
// choice (under the perfect-sync network) and an attached observer change
// only wall-clock time, never a bit of the result. Golden and seed-compat
// tests pin this.
//
// Single rounds of Algorithm 1 stay available below the runner:
//
//	profile := repro.UnitBandwidth(1000)          // n nodes, bin = bout = 1
//	sel, _ := repro.Uniform(1000)                 // selection distribution
//	svc, _ := repro.NewDatingService(profile, sel)
//	s := repro.NewStream(42)                      // deterministic randomness
//	res := svc.RunRound(s)                        // one round of Algorithm 1
//	fmt.Println(len(res.Dates), "dates arranged") // ≈ 0.47 * n
//
// # Where to read more
//
// README.md walks through each subsystem: the owner-range exchange kernel
// every parallel phase shares, the sharded live-message runtime and its
// network models, the clockless asynchronous runtime, spreading on explicit
// graphs, conflicting-rumor consensus, observability and the
// repetition-parallel experiment harness. The docs/ directory carries the
// repository-level contracts:
//
//   - docs/ARCHITECTURE.md: the package map, who owns which peer ranges,
//     the data flow of one round, and the three runtimes with the one
//     message-level driver the live specs share;
//   - docs/DETERMINISM.md: the bit-identity contract and the full
//     seed-domain registry;
//   - docs/BENCHMARKS.md: what each BENCH_*.json measures and how the CI
//     benchdiff gate works.
//
// The runnable programs under examples/ and the reproduction CLIs under
// cmd/ (datebench, rumorbench, hetsim, benchdiff) consume this package like
// any other caller.
package repro
