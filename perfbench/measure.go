package main

// The untraced run: in each of several fresh processes, set-up timing,
// then complete repro.Run calls timed back to back with tracing off, every
// one of them checked.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/rng"
)

const mib = 1 << 20

// Each measuring process repeats set-up at least minSetupReps times and
// until setupBudget has passed (at most maxSetupReps).
const (
	minSetupReps = 2
	maxSetupReps = 10
	setupBudget  = 250 * time.Millisecond
)

// timeSetup builds the workload's inputs repeatedly and returns the last
// set with every build time in seconds.
func timeSetup(w workload, seed uint64) (*inputs, []float64, error) {
	var in *inputs
	var times []float64
	start := time.Now()
	for len(times) < minSetupReps || (len(times) < maxSetupReps && time.Since(start) < setupBudget) {
		in = nil // let the previous set go before building the next
		runtime.GC()
		t0 := time.Now()
		var err error
		in, err = w.setup(seed, w.n)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return in, times, nil
}

// runSample is one timed repro.Run.
type runSample struct {
	sec     float64
	allocMB float64
	peakMB  float64
	out     outcome
	rep     repro.Report
}

// timedRun makes one complete repro.Run from a collected heap: wall time
// around the call, bytes allocated during it and the heap high-water mark
// sampled while it runs.
func timedRun(in *inputs, seed uint64, k int, extra ...repro.RunOption) (runSample, error) {
	opts := append([]repro.RunOption{repro.WithSeed(seed), repro.WithWorkers(k)}, in.opts...)
	opts = append(opts, extra...)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hs := startHeapSampler()
	t0 := time.Now()
	rep, err := repro.Run(in.spec, opts...)
	sec := time.Since(t0).Seconds()
	peak := hs.stop()
	runtime.ReadMemStats(&after)
	if err != nil {
		return runSample{}, err
	}
	return runSample{
		sec:     sec,
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / mib,
		peakMB:  float64(peak) / mib,
		out:     outcomeOf(rep),
		rep:     rep,
	}, nil
}

// heapSampler polls the heap's object bytes every millisecond and keeps
// the largest value seen.
type heapSampler struct {
	quit chan struct{}
	done chan uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	hs := &heapSampler{quit: make(chan struct{}), done: make(chan uint64)}
	go func() {
		s := []metrics.Sample{{Name: heapObjects}}
		var peak uint64
		read := func() {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
		}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		read()
		for {
			select {
			case <-t.C:
				read()
			case <-hs.quit:
				read()
				hs.done <- peak
				return
			}
		}
	}()
	return hs
}

// stop ends the sampling goroutine, waits for it and returns the peak.
func (hs *heapSampler) stop() uint64 {
	close(hs.quit)
	return <-hs.done
}

// reference returns the outcome every run of this workload must repeat: the
// pinned one at the default seed and a pinned size, otherwise nil (the
// first run's outcome becomes the reference).
func (w workload) reference(seed uint64, n int) *outcome {
	if seed != defaultSeed {
		return nil
	}
	for _, p := range w.pins {
		if p.n == n {
			return &outcome{digest: p.digest, rounds: p.rounds}
		}
	}
	return nil
}

// verify checks one run: completion, the workload's own invariants, and
// the trajectory against the reference (digest and rounds, plus messages
// when the reference came from an earlier run of this process).
func verify(in *inputs, rep repro.Report, ref *outcome) error {
	if !rep.Completed {
		return fmt.Errorf("run did not complete in %d rounds", rep.Rounds)
	}
	if err := in.check(rep); err != nil {
		return err
	}
	return sameOutcome(outcomeOf(rep), ref)
}

func sameOutcome(got outcome, ref *outcome) error {
	if ref == nil {
		return nil
	}
	if got.digest != ref.digest || got.rounds != ref.rounds {
		return fmt.Errorf("trajectory %s in %d rounds, want %s in %d rounds",
			got.digest, got.rounds, ref.digest, ref.rounds)
	}
	if ref.messages != 0 && got.messages != ref.messages {
		return fmt.Errorf("%d messages, want %d", got.messages, ref.messages)
	}
	return nil
}

// An untraced measurement spreads its timed runs over procs fresh
// processes, which cycle through draws input sets: draw 0 is the seed's own
// inputs, draw d > 0 those of drawSeed(seed, d). Two reasons:
//   - A run's speed shifts from process to process and is level within one
//     (on a two-vCPU VM the dating round's level is bimodal, about 2.6 s or
//     3.7 s at the benchmark size), so one process samples the shift once;
//     a mean over fresh processes estimates it. The mean is trimmed of the
//     fastest and the slowest process, so one process caught by a burst of
//     load from outside does not move it.
//   - One input draw fixes the work (rumor-dating completes in 17 to 19
//     rounds depending on the seed); several draws average it.
//
// Every draw runs in procs/draws processes, so each draw's outcome is
// checked to repeat across processes.
const (
	procs = 8
	draws = 4
)

// domainDraw derives the input seeds of draws d > 0.
const domainDraw uint64 = 0xE6

func drawSeed(seed uint64, d int) uint64 {
	if d == 0 {
		return seed
	}
	return rng.Derive(seed, domainDraw, uint64(d))
}

// childRun is one checked, timed run as a measuring process reports it.
type childRun struct {
	Sec      float64 `json:"sec"`
	AllocMB  float64 `json:"alloc_mb"`
	PeakMB   float64 `json:"peak_mb"`
	Digest   string  `json:"digest"`
	Rounds   int     `json:"rounds"`
	Messages int64   `json:"messages"`
}

// childReport is a measuring process's output: its set-up times, its
// passing runs and its tally.
type childReport struct {
	Setup     []float64  `json:"setup"`
	Runs      []childRun `json:"runs"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
}

// measureChild is one measuring process: set-up timing, then timed repro.Run
// calls for the given number of seconds (at least one), each checked.
func measureChild(w workload, seed uint64, seconds float64) (childReport, error) {
	in, setup, err := timeSetup(w, seed)
	if err != nil {
		return childReport{}, err
	}
	ref := w.reference(seed, w.n)
	rep := childReport{Setup: setup}
	var t tally
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var last time.Duration // the latest attempt, the estimate of the next
	for t.attempted < 1 || time.Since(start)+last <= budget {
		t0 := time.Now()
		s, err := timedRun(in, seed, workers)
		if err == nil {
			err = verify(in, s.rep, ref)
		}
		last = time.Since(t0)
		if !t.add(fmt.Sprintf("%s run %d", w.name, t.attempted+1), err) {
			continue
		}
		if ref == nil {
			o := s.out
			ref = &o
		}
		rep.Runs = append(rep.Runs, childRun{
			Sec: s.sec, AllocMB: s.allocMB, PeakMB: s.peakMB,
			Digest: s.out.digest, Rounds: s.out.rounds, Messages: s.out.messages,
		})
	}
	rep.Attempted, rep.Failed = t.attempted, t.failed
	return rep, nil
}

// measure is the untraced run: procs fresh processes, each given an equal
// share of the time, run measureChild on their draw's inputs; every run of
// a draw must repeat the draw's first outcome. run_s, alloc_mb and
// peak_heap_mb are the trimmed mean over processes of the process's median,
// msgs_per_s that of the process's messages over its median, setup_s the median
// of every build.
func measure(w workload, seed uint64, seconds float64) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	var t tally
	var setup, runS, alloc, peak []float64
	var rate []float64
	refs := make([]*outcome, draws)
	for p := 0; p < procs; p++ {
		d := p % draws
		var rep childReport
		err := runChild(exe, &rep, "--child", "--workload", w.name,
			"--seed", strconv.FormatUint(drawSeed(seed, d), 10), "--n", strconv.Itoa(w.n),
			"--seconds", strconv.FormatFloat(seconds/procs, 'g', -1, 64))
		if err != nil {
			t.add(fmt.Sprintf("%s process %d", w.name, p+1), err)
			continue
		}
		t.attempted += rep.Attempted
		t.failed += rep.Failed
		setup = append(setup, rep.Setup...)
		var secs []float64
		for i, r := range rep.Runs {
			o := outcome{digest: r.Digest, rounds: r.Rounds, messages: r.Messages}
			if refs[d] == nil {
				refs[d] = &o
			}
			if err := sameOutcome(o, refs[d]); err != nil {
				t.failed++ // the run passed its own process's checks
				fmt.Fprintf(os.Stderr, "perfbench: FAIL %s process %d run %d: %v\n", w.name, p+1, i+1, err)
				continue
			}
			secs = append(secs, r.Sec)
			fmt.Printf("  process %d (draw %d) run %d: %.4f s  alloc %.1f MiB  peak heap %.1f MiB  %s in %d rounds, %d msgs\n",
				p+1, d, i+1, r.Sec, r.AllocMB, r.PeakMB, r.Digest, r.Rounds, r.Messages)
		}
		if len(secs) == 0 {
			continue
		}
		runS = append(runS, median(secs))
		rate = append(rate, float64(refs[d].messages)/median(secs))
		alloc = append(alloc, median(pluck(rep.Runs, func(r childRun) float64 { return r.AllocMB })))
		peak = append(peak, median(pluck(rep.Runs, func(r childRun) float64 { return r.PeakMB })))
	}
	if len(runS) == 0 {
		return result{Attempted: max(t.attempted, 1), Failed: max(t.failed, 1), Metrics: map[string]metric{}}, nil
	}
	run := trimmedMean(runS)
	m := map[string]metric{
		"setup_s":      {median(setup), "s"},
		"run_s":        {run, "s"},
		"msgs_per_s":   {trimmedMean(rate), "1/s"},
		"alloc_mb":     {trimmedMean(alloc), "MiB"},
		"peak_heap_mb": {trimmedMean(peak), "MiB"},
	}
	fmt.Printf("%s: %d runs in %d processes (%d failed), run_s %.4f (process medians %.4g), fail_frac %.4f\n",
		w.name, t.attempted, len(runS), t.failed, run, runS, float64(t.failed)/float64(max(t.attempted, 1)))
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// runChild runs exe with args, waits for it and decodes the JSON object on
// the last line of its standard output into v.
func runChild(exe string, v any, args ...string) error {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	bindToParent(cmd)
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("measuring process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), v); err != nil {
		return fmt.Errorf("measuring process output: %w", err)
	}
	return nil
}

// trimmedMean is the mean of xs without its smallest and largest value
// (the plain mean below three values).
func trimmedMean(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) >= 3 {
		s = s[1 : len(s)-1]
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func pluck[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// median returns the median of xs (the mean of the middle two for even
// lengths); 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
