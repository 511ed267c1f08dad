package main

// The traced run: per-layer metrics. It times the workload through
// repro.Run untraced and through the direct gossip entry point (the
// facade's overhead), once with an observer attached (the runtime's phase
// spans and the phase-accounting self-check) and once at workers=1 (the
// serial baseline), then probes each layer's public functions on the
// workload family's inputs. Every outcome is checked.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"

	"repro"
	"repro/internal/gossip"
	"repro/internal/obs"
)

// tracedPairs is the number of (repro.Run, direct call) pairs the traced
// run makes to measure the facade overhead.
const tracedPairs = 3

// Phase-accounting tolerance: the per-round critical-path phase time plus
// the facade's own time must cover this share of the traced run's wall
// time. What the phases leave out is the runtimes' set-up and the
// coordinator's per-round bookkeeping; a phase that stopped being recorded
// (step alone is about half of every runtime's time) falls far below.
const (
	coverageMin = 0.50
	coverageMax = 1.10
)

// phaseTime is one phase's time in seconds: summed over shards, and summed
// over rounds of the slowest shard (the per-round critical path).
type phaseTime struct{ sum, crit float64 }

// phaseTimes aggregates an observer's spans by (track, phase).
func phaseTimes(o *obs.Observer) (map[string]map[string]phaseTime, error) {
	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("parse runtime trace: %w", err)
	}
	tracks := map[int]string{}
	type key struct {
		pid   int
		phase string
		round float64
	}
	slowest := map[key]float64{}
	out := map[string]map[string]phaseTime{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				tracks[ev.Pid], _ = ev.Args["name"].(string)
			}
		case "X":
			sec := ev.Dur / 1e6
			round, _ := ev.Args["round"].(float64)
			k := key{ev.Pid, ev.Name, round}
			slowest[k] = max(slowest[k], sec)
			name := tracks[ev.Pid]
			if out[name] == nil {
				out[name] = map[string]phaseTime{}
			}
			pt := out[name][ev.Name]
			pt.sum += sec
			out[name][ev.Name] = pt
		}
	}
	for k, sec := range slowest {
		name := tracks[k.pid]
		pt := out[name][k.phase]
		pt.crit += sec
		out[name][k.phase] = pt
	}
	return out, nil
}

// gaugeMax returns the largest sample of the named gauge of a track.
func gaugeMax(m *obs.Metrics, track, name string) (int64, int) {
	if m == nil {
		return 0, 0
	}
	for _, g := range m.Gauges {
		if g.Track == track && g.Name == name {
			return g.Max, g.Samples
		}
	}
	return 0, 0
}

// runtimeRun is one observed run of a workload on a message runtime.
type runtimeRun struct {
	sample runSample
	obs    *obs.Observer
	phases map[string]map[string]phaseTime
	n      int
}

// observed makes one checked repro.Run with a fresh observer attached.
func observed(rec *recorder, t *tally, label string, in *inputs, seed uint64, n int, ref *outcome) (runtimeRun, error) {
	o := repro.NewObserver()
	var s runSample
	var err error
	rec.do("run:repro.Run+observer", func() { s, err = timedRun(in, seed, workers, repro.WithObserver(o)) })
	if err == nil {
		err = verify(in, s.rep, ref)
	}
	if !t.add(label+" traced run", err) {
		return runtimeRun{}, fmt.Errorf("%s traced run failed", label)
	}
	ph, err := phaseTimes(o)
	if err != nil {
		return runtimeRun{}, err
	}
	return runtimeRun{sample: s, obs: o, phases: ph, n: n}, nil
}

// runtimeMetrics reports a message runtime's phase, throughput and queue
// metrics from an observed run.
func runtimeMetrics(put func(string, float64, string), track string, rr runtimeRun) {
	for _, p := range []string{"deliver", "step", "route"} {
		pt := rr.phases[track][p]
		put(track+"."+p+"_s", pt.sum, "s")
		put(track+"."+p+"_s_crit", pt.crit, "s")
	}
	rep := rr.sample.rep
	switch track {
	case "live":
		depth, rounds := gaugeMax(rep.Metrics, "live", "queue_depth")
		put("live.queue_depth_max", float64(depth), "count")
		put("live.msgs_per_peer_step", float64(rep.Messages)/float64(max(rounds, 1)*rr.n), "count")
	case "async":
		depth, _ := gaugeMax(rep.Metrics, "async", "calendar_depth")
		put("async.queue_depth_max", float64(depth), "count")
		if res, ok := rep.Detail.(gossip.AsyncResult); ok {
			put("async.firings_per_s", float64(res.Fired)/rr.sample.sec, "1/s")
		}
	}
}

// designated returns the workload whose run measures a runtime the traced
// workload does not enter.
func designated(runtime string) workload {
	name := map[string]string{"live": "live-sync", "async": "async-poisson"}[runtime]
	w, _ := findWorkload(name) // both names are in the table
	return w
}

// traced is the traced run of workload w.
func traced(w workload, seed uint64, dir string) (result, error) {
	rec := newRecorder()
	var t tally
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	observers := map[string]*obs.Observer{}

	var in *inputs
	var err error
	rec.do("perfbench:setup", func() { in, err = w.setup(seed, w.n) })
	if err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	ref := w.reference(seed, w.n)

	// Untraced repro.Run against the direct entry point, in adjacent pairs
	// whose order alternates; the facade overhead is the median pair
	// difference.
	var runS, diffs []float64
	facadeRun := func(i int) (float64, bool) {
		var s runSample
		var rerr error
		rec.do("run:repro.Run", func() { s, rerr = timedRun(in, seed, workers) })
		if rerr == nil {
			rerr = verify(in, s.rep, ref)
		}
		if !t.add(fmt.Sprintf("%s untraced run %d", w.name, i+1), rerr) {
			return 0, false
		}
		if ref == nil {
			o := s.out
			ref = &o
		}
		return s.sec, true
	}
	directRun := func(i int) (float64, bool) {
		var d outcome
		var rerr error
		runtime.GC()
		sec := rec.do("gossip:"+in.via, func() { d, rerr = in.direct(seed, workers) }).Seconds()
		if rerr == nil && !d.completed {
			rerr = fmt.Errorf("direct run did not complete")
		}
		if rerr == nil {
			rerr = sameOutcome(d, ref)
		}
		return sec, t.add(fmt.Sprintf("%s direct run %d", w.name, i+1), rerr)
	}
	for i := 0; i < tracedPairs; i++ {
		var rs, ds float64
		var rok, dok bool
		if i%2 == 0 {
			rs, rok = facadeRun(i)
			ds, dok = directRun(i)
		} else {
			ds, dok = directRun(i)
			rs, rok = facadeRun(i)
		}
		if rok {
			runS = append(runS, rs)
		}
		if rok && dok {
			diffs = append(diffs, rs-ds)
		}
	}
	if len(diffs) == 0 {
		return result{Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
	}
	untraced := median(runS)
	facade := median(diffs)
	put("run.facade_overhead_s", facade, "s")

	// The traced run and the phase-accounting self-check.
	rr, err := observed(rec, &t, w.name, in, seed, w.n, ref)
	if err != nil {
		return result{Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
	}
	observers[w.name] = rr.obs
	var crit float64
	for _, phases := range rr.phases {
		for _, pt := range phases {
			crit += pt.crit
		}
	}
	// The facade term of the self-check is the traced call's own facade
	// time — its wall time minus the Report.Wall repro.Run stamps around
	// the protocol — since the paired difference above carries the run-to-
	// run noise of two separate runs.
	self := rr.sample.sec - rr.sample.rep.Wall.Seconds()
	put("run.facade_self_s", self, "s")
	coverage := (crit + self) / rr.sample.sec
	put("obs.phase_coverage", coverage, "ratio")
	put("obs.overhead_ratio", rr.sample.sec/untraced, "ratio")
	var covErr error
	if coverage < coverageMin || coverage > coverageMax {
		covErr = fmt.Errorf("phase coverage %.3f outside [%.2f, %.2f]", coverage, coverageMin, coverageMax)
	}
	t.add(w.name+" phase accounting", covErr)

	// Serial baseline: workers=1 must replay the same trajectory.
	var s1 runSample
	rec.do("par:serial-baseline", func() { s1, err = timedRun(in, seed, 1) })
	if err == nil {
		err = verify(in, s1.rep, ref)
	}
	if t.add(w.name+" workers=1 run", err) {
		put("par.speedup", s1.sec/untraced, "ratio")
	}
	put("par.nproc", float64(runtime.NumCPU()), "count")

	// Runtime phases: from this run where the workload enters the runtime,
	// otherwise from the runtime's designated workload.
	for _, rt := range []string{"live", "async"} {
		if w.runtime == rt {
			runtimeMetrics(put, rt, rr)
			continue
		}
		dw := designated(rt)
		var din *inputs
		rec.do("perfbench:setup "+dw.name, func() { din, err = dw.setup(seed, dw.n) })
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", dw.name, err)
		}
		drr, err := observed(rec, &t, dw.name, din, seed, dw.n, dw.reference(seed, dw.n))
		if err != nil {
			continue
		}
		observers[dw.name] = drr.obs
		runtimeMetrics(put, rt, drr)
	}

	rec.do("perfbench:probes", func() { probeLayers(rec, &t, w, in, seed, put) })

	stem := fmt.Sprintf("%s-seed%d", w.name, seed)
	if err := rec.write(dir, stem, provenanceOf(w, seed), observers); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("%s traced: %d checks (%d failed); spans in %s/%s-*.json; phase coverage %.3f\n",
		w.name, t.attempted, t.failed, dir, stem, coverage)
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}
