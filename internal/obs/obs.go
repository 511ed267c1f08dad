// Package obs is the deterministic instrumentation layer: phase spans,
// runtime metrics, trace export and profiling hooks for the three execution
// runtimes (core engine rounds, the sharded live runtime, the clockless
// async runtime).
//
// # Shape
//
// An Observer is a passive sink a run records into. Each runtime instance
// registers a Track (one "process" in the exported timeline); a track owns
// one span Arena per shard plus any number of named Gauges:
//
//   - spans are per-(round|bucket, shard, phase) wall-clock timings. Each
//     shard appends into its own arena with no synchronization while the
//     round executes; the runtime's coordinator merges the arenas into the
//     track at the round barrier (Track.Barrier), where the runtime already
//     synchronizes to fold traffic counters.
//   - gauges are per-round sampled values (messages sent, queue depth,
//     scratch bytes, budget tokens in flight, ...), recorded by the
//     coordinator once per round.
//
// Exporters — the Chrome trace_event writer (WriteTrace), the Metrics
// aggregate and the plain-text Summary table — read only barrier-merged
// state under the track locks, so they may run while a run is in progress
// (they simply do not see the round currently executing).
//
// # Determinism contract
//
// Observers are read-only with respect to the simulation: they never touch
// a random stream, never reorder message exchanges, and never feed anything
// back into protocol state. Attaching an observer therefore cannot change
// any result — an instrumented run is bit-identical to an uninstrumented
// one, a property the runtime test suites and the CI instrumentation-
// identity smoke pin at multiple shard counts. The only cost of a disabled
// observer (nil *Observer, nil *Track) is a nil check on the hot path:
// every recording method is nil-receiver-safe and runtimes skip the
// time.Now calls entirely when no observer is attached.
package obs

import (
	"sync"
	"time"
)

// Phase labels one timed section of a runtime's round (or bucket) loop.
type Phase uint8

// The instrumented phases. Deliver/Step/Route are the three phases of the
// sharded runtimes' round loop; Round is the whole-round span of
// the core engine's dating rounds, which parallelize inside the engine
// rather than across long-lived shards.
const (
	PhaseDeliver Phase = iota
	PhaseStep
	PhaseRoute
	PhaseRound
	phaseCount
)

var phaseNames = [...]string{"deliver", "step", "route", "round"}

// String returns the phase's name as used in trace events and tables.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "phase?"
}

// Span is one recorded phase timing: shard Shard spent Dur on Phase of
// round Round, starting Start after the observer's epoch.
type Span struct {
	Round int32
	Shard int32
	Phase Phase
	Start time.Duration
	Dur   time.Duration
}

// Arena is one shard's private span sink. Record appends with no
// synchronization — only the owning shard writes between barriers, and
// Track.Barrier hands the spans to the track. A nil arena ignores records,
// but runtimes should gate the surrounding time.Now calls on the observer
// being attached rather than rely on that.
type Arena struct {
	epoch time.Time
	shard int32
	spans []Span
}

// Record appends one span: the phase ran from start until now.
func (a *Arena) Record(round int, p Phase, start time.Time) {
	if a == nil {
		return
	}
	a.spans = append(a.spans, Span{
		Round: int32(round),
		Shard: a.shard,
		Phase: p,
		Start: start.Sub(a.epoch),
		Dur:   time.Since(start),
	})
}

// Sample is one gauge observation: Value at round Round, TS after the
// observer's epoch.
type Sample struct {
	Round int32
	TS    time.Duration
	Value int64
}

// Gauge is a named per-round sampled series. Sample is called by the
// runtime's coordinator (one goroutine), once per round; a nil gauge
// ignores samples.
type Gauge struct {
	name    string
	epoch   time.Time
	mu      sync.Mutex
	samples []Sample
}

// Sample records the gauge's value at the given round.
func (g *Gauge) Sample(round int, v int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.samples = append(g.samples, Sample{Round: int32(round), TS: time.Since(g.epoch), Value: v})
	g.mu.Unlock()
}

// snapshot copies the sample series for an exporter.
func (g *Gauge) snapshot() []Sample {
	g.mu.Lock()
	out := append([]Sample(nil), g.samples...)
	g.mu.Unlock()
	return out
}

// Track is one runtime instance's instrumentation: a name (the process
// label of the exported timeline), per-shard span arenas and named gauges.
// A nil track hands out nil arenas and gauges, so a runtime threads it
// unconditionally and pays nothing when observation is off.
type Track struct {
	name   string
	pid    int
	epoch  time.Time
	arenas []Arena

	mu     sync.Mutex
	spans  []Span // barrier-merged spans
	gauges []*Gauge
}

// Name returns the track's label.
func (t *Track) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Arena returns shard w's span arena.
func (t *Track) Arena(w int) *Arena {
	if t == nil {
		return nil
	}
	return &t.arenas[w]
}

// Gauge returns the named gauge, creating it on first use. Gauges are
// registered at runtime construction (one goroutine); Sample and the
// exporters are then safe concurrently.
func (t *Track) Gauge(name string) *Gauge {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, g := range t.gauges {
		if g.name == name {
			return g
		}
	}
	g := &Gauge{name: name, epoch: t.epoch}
	t.gauges = append(t.gauges, g)
	return g
}

// Barrier merges every arena's spans into the track. Runtimes call it from
// the coordinator at the round barrier — the point where the shards are
// already quiescent — so arena appends never race with the merge, and
// exporters reading the track see whole rounds only.
func (t *Track) Barrier() {
	if t == nil {
		return
	}
	t.mu.Lock()
	for i := range t.arenas {
		a := &t.arenas[i]
		t.spans = append(t.spans, a.spans...)
		a.spans = a.spans[:0]
	}
	t.mu.Unlock()
}

// Spans returns a copy of the barrier-merged spans.
func (t *Track) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	return out
}

// Observer collects instrumentation tracks. The zero value is not useful;
// construct with NewObserver. A nil *Observer is the disabled state: it
// hands out nil tracks and every recording call on those is a no-op.
type Observer struct {
	epoch  time.Time
	mu     sync.Mutex
	tracks []*Track
}

// NewObserver returns an empty observer; its epoch (trace time zero) is the
// moment of creation.
func NewObserver() *Observer {
	return &Observer{epoch: time.Now()}
}

// Track registers a new instrumentation track with one span arena per
// shard. Safe for concurrent callers (parallel harness runs sharing one
// observer each register their own tracks). On a nil observer it returns a
// nil track.
func (o *Observer) Track(name string, shards int) *Track {
	if o == nil {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	t := &Track{name: name, epoch: o.epoch, arenas: make([]Arena, shards)}
	for w := range t.arenas {
		t.arenas[w] = Arena{epoch: o.epoch, shard: int32(w)}
	}
	o.mu.Lock()
	t.pid = len(o.tracks)
	o.tracks = append(o.tracks, t)
	o.mu.Unlock()
	return t
}

// Mark returns the number of tracks registered so far; MetricsSince(mark)
// aggregates only tracks registered after it, which is how run.Run
// attributes a shared observer's tracks to the run that created them.
func (o *Observer) Mark() int {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.tracks)
}

// snapshotTracks returns the track list from the given mark onward.
func (o *Observer) snapshotTracks(mark int) []*Track {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if mark < 0 || mark > len(o.tracks) {
		mark = 0
	}
	return append([]*Track(nil), o.tracks[mark:]...)
}
