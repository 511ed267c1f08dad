package main

// Layer probes of the traced run: each times one layer's public functions
// on the inputs of the workload family that exercises it.

import (
	"fmt"
	"runtime"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/exch"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/simnet"
)

// Probe seed domains, disjoint from the input-generation ones.
const (
	domainCoreProbe  uint64 = 0xE3
	domainExchProbe  uint64 = 0xE4
	domainGraphProbe uint64 = 0xE5
)

// Probe sizes: fixed work per probe, so per-layer figures compare across
// runs.
const (
	coreRounds  = 30
	exchRounds  = 20
	deriveCalls = 1 << 23
	deriveReps  = 5
	pickCalls   = 1 << 22
	liveNewReps = 3
	emptyRounds = 20
	profileReps = 5
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// probeLayers runs every layer probe and reports its metrics.
func probeLayers(rec *recorder, t *tally, w workload, in *inputs, seed uint64, put func(string, float64, string)) {
	rumor, _ := findWorkload("rumor-dating")
	topo, _ := findWorkload("topology-geom")

	// bandwidth: the workload's own profile size, or rumor-dating's.
	pn := rumor.n
	if in.profile.N() > 0 {
		pn = in.profile.N()
	}
	var times []float64
	for i := 0; i < profileReps; i++ {
		runtime.GC()
		var err error
		times = append(times, rec.do("bandwidth:Zipf", func() { _, err = zipfProfile(seed, pn) }).Seconds())
		t.add("bandwidth.Zipf", err)
	}
	put("bandwidth.profile_s", median(times), "s")

	// core and exch on rumor-dating's inputs.
	p, err := zipfProfile(seed, rumor.n)
	if !t.add("rumor-dating profile", err) {
		return
	}
	probeCore(rec, t, p, seed, put)
	probeExch(rec, t, p, seed, put)
	probeDerive(rec, seed, put)

	// live: the workload's own size and network when it runs on live.
	ln, net := designated("live").n, live.NetModel(nil)
	if w.runtime == "live" {
		ln = w.n
		if in.graph != nil {
			net = topoNet
		}
	}
	probeLive(rec, t, ln, seed, net, put)

	// graph: topology-geom's generator and sampler.
	g := in.graph
	var gerr error
	runtime.GC()
	gen := rec.do("graph:BarabasiAlbert", func() {
		var gg *graph.CSR
		gg, gerr = graph.BarabasiAlbert(topo.n, baM, rng.Derive(seed, domainGraph))
		if g == nil {
			g = gg
		}
	})
	if t.add("graph.BarabasiAlbert", gerr) {
		put("graph.gen_s", gen.Seconds(), "s")
		probePick(rec, t, g, seed, put)
	}
}

// probeCore times core.Service.RunRoundShared — the call every rumor-dating
// round makes — and checks each round's capacities.
func probeCore(rec *recorder, t *tally, p bandwidth.Profile, seed uint64, put func(string, float64, string)) {
	sel, err := core.NewUniformSelector(p.N())
	if !t.add("core selector", err) {
		return
	}
	svc, err := core.NewService(p, sel)
	if !t.add("core service", err) {
		return
	}
	b, err := par.NewBudget(workers)
	if !t.add("core budget", err) {
		return
	}
	var secs, reqRate, allocs []float64
	var dates, m float64
	var before, after runtime.MemStats
	for r := 0; r < coreRounds; r++ {
		runtime.ReadMemStats(&before)
		var res core.RoundResult
		var rerr error
		d := rec.do("core:Service.RunRoundShared", func() {
			res, rerr = svc.RunRoundShared(rng.Derive(seed, domainCoreProbe, uint64(r)), b)
		}).Seconds()
		runtime.ReadMemStats(&after)
		if rerr == nil {
			rerr = core.ValidateCapacities(res, p)
		}
		if !t.add(fmt.Sprintf("core round %d", r+1), rerr) {
			continue
		}
		secs = append(secs, d)
		reqRate = append(reqRate, float64(res.OffersSent+res.RequestsSent)/d)
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc))
		dates += float64(len(res.Dates))
		m += float64(svc.M())
	}
	if len(secs) == 0 {
		return
	}
	put("core.round_s", median(secs), "s")
	put("core.round_s_p90", quantile(secs, 0.9), "s")
	put("core.requests_per_s", median(reqRate), "1/s")
	put("core.alloc_b_per_round", median(allocs), "B")
	put("core.date_ratio", dates/m, "ratio")
}

// probeExch times one exch.Exchange cycle — Reset, a two-worker Record
// fanout, Prefix, and the owners' Fill — at rumor-dating's per-round record
// count (every offer and request of a full round) with uniform keys.
func probeExch(rec *recorder, t *tally, p bandwidth.Profile, seed uint64, put func(string, float64, string)) {
	n := p.N()
	records := p.TotalIn() + p.TotalOut()
	keys := make([][]int32, workers)
	s := rng.New(rng.Derive(seed, domainExchProbe))
	for w := range keys {
		keys[w] = make([]int32, records/workers+1)
		for i := range keys[w] {
			keys[w][i] = int32(s.Intn(n))
		}
	}
	part := exch.Partition{N: n, Parts: workers}
	off := make([]int32, n+1)
	out := make([]int32, workers*len(keys[0]))
	var ex exch.Exchange[int32]
	var rates []float64
	for r := 0; r < exchRounds; r++ {
		var total int32
		d := rec.do("exch:Exchange", func() {
			ex.Reset(workers, part)
			par.Do(workers, func(w int) {
				ex.ClearWorker(w)
				for i, k := range keys[w] {
					ex.Record(w, k, int32(i))
				}
			})
			total = ex.Prefix()
			par.Do(workers, func(o int) { ex.Fill(o, off, out) })
		}).Seconds()
		var err error
		if want := workers * len(keys[0]); int(total) != want {
			err = fmt.Errorf("exchanged %d records, want %d", total, want)
		}
		if t.add("exch cycle", err) {
			rates = append(rates, float64(total)/d)
		}
	}
	put("exch.records_per_s", median(rates), "1/s")
}

// probeDerive times the three-argument rng.Derive the seeded round calls
// per node and per rendezvous.
func probeDerive(rec *recorder, seed uint64, put func(string, float64, string)) {
	var ns []float64
	for r := 0; r < deriveReps; r++ {
		var acc uint64
		d := rec.do("rng:Derive", func() {
			for i := uint64(0); i < deriveCalls; i++ {
				acc += rng.Derive(seed, 0x5C, i)
			}
		})
		sink += acc
		ns = append(ns, float64(d.Nanoseconds())/deriveCalls)
	}
	put("rng.derive_ns", median(ns), "ns")
}

// probeLive times live.New and the fixed per-round cost of Runtime.Run with
// a no-op step at n peers.
func probeLive(rec *recorder, t *tally, n int, seed uint64, net live.NetModel, put func(string, float64, string)) {
	noop := func(int, int, []simnet.Message, *rng.Stream, func(simnet.Message)) {}
	var news []float64
	var rt *live.Runtime
	for r := 0; r < liveNewReps; r++ {
		rt = nil
		runtime.GC()
		var err error
		d := rec.do("live:New", func() {
			rt, err = live.New(live.Config{N: n, Seed: seed, Step: noop, Shards: workers, Net: net})
		})
		if !t.add("live.New", err) {
			return
		}
		news = append(news, d.Seconds())
	}
	put("live.new_s", median(news), "s")
	d := rec.do("live:Runtime.Run", func() { rt.Run(emptyRounds) })
	var err error
	if st := rt.Stats(); st.Sent != 0 {
		err = fmt.Errorf("no-op rounds sent %d messages", st.Sent)
	}
	if t.add("live empty rounds", err) {
		put("live.empty_round_ms", float64(d.Microseconds())/1e3/emptyRounds, "ms")
	}
}

// probePick times UniformNeighbors.Pick over the BA graph at uniformly
// drawn peers.
func probePick(rec *recorder, t *tally, g *graph.CSR, seed uint64, put func(string, float64, string)) {
	smp, err := graph.NewUniformNeighbors(g)
	if !t.add("graph sampler", err) {
		return
	}
	s := rng.New(rng.Derive(seed, domainGraphProbe))
	peers := make([]int, 1<<16)
	for i := range peers {
		peers[i] = s.Intn(g.N())
	}
	var acc uint64
	bad := 0
	d := rec.do("graph:UniformNeighbors.Pick", func() {
		for i := 0; i < pickCalls; i++ {
			v := smp.Pick(peers[i&(len(peers)-1)], s)
			if v < 0 {
				bad++
			}
			acc += uint64(v)
		}
	})
	sink += acc
	if bad > 0 {
		err = fmt.Errorf("%d picks found an empty row", bad)
	}
	if t.add("graph picks", err) {
		put("graph.pick_ns", float64(d.Nanoseconds())/pickCalls, "ns")
	}
}
