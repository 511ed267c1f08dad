package repro

// Seed-compatibility golden tests for the unified runner: for every
// protocol, Run(spec, WithSeed(s)) is pinned bit-for-bit by an FNV-1a hash
// over the unified report, and must be bit-identical across worker budgets
// and (for live runs) execution substrates — the whole
// point of the seed-first API is that *no* option other than the seed can
// move a number. The hashes were captured from the pre-exch-kernel
// implementation, so they also pin the refactored engine, the Arranger and
// the live runtime against their historical output. The tests run each
// protocol at n = 17 (degenerate small networks exercise every edge path)
// and n = 1000.

import (
	"hash/fnv"
	"reflect"
	"testing"
)

const compatSeed = 0xC0FFEE

// hashReport digests the option-independent fields of a unified report:
// every int64 is folded little-endian, with -1 sentinels separating the
// variable-length histories.
func hashReport(r Report) uint64 {
	h := fnv.New64a()
	w := func(vs ...int64) {
		for _, v := range vs {
			var b [8]byte
			u := uint64(v)
			for i := 0; i < 8; i++ {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	w(int64(r.Rounds))
	if r.Completed {
		w(1)
	} else {
		w(0)
	}
	for _, v := range r.Trajectory {
		w(int64(v))
	}
	w(-1)
	for _, v := range r.Sent {
		w(int64(v))
	}
	w(-1)
	w(r.Messages, int64(r.MaxInLoad), int64(r.MaxOutLoad))
	return h.Sum64()
}

// compatCase pins one (spec, n) cell of the golden table.
type compatCase struct {
	name string
	spec func(n int) Spec
	want map[int]uint64 // n -> hash at seed compatSeed
}

var compatCases = []compatCase{
	{
		name: "rumor-dating",
		spec: func(n int) Spec { return RumorConfig{Algorithm: Dating, N: n} },
		want: map[int]uint64{17: 0x81a18fe81c453882, 1000: 0x0c18d17057c33cd1},
	},
	{
		name: "rumor-push",
		spec: func(n int) Spec { return RumorConfig{Algorithm: Push, N: n} },
		want: map[int]uint64{17: 0x7ffbbd51787521f7, 1000: 0x2cba44f09be18d5d},
	},
	{
		name: "multirumor",
		spec: func(n int) Spec {
			return MultiRumorConfig{N: n, Injections: []Injection{
				{Round: 1, Source: 0}, {Round: 3, Source: n / 2}, {Round: 4, Source: n - 1},
			}}
		},
		want: map[int]uint64{17: 0xe0265eec2480d7b9, 1000: 0xccaa468b226a831d},
	},
	{
		name: "monger",
		spec: func(n int) Spec { return MongerConfig{N: n, Blocks: 4, BlockSize: 16, PayloadSeed: 9} },
		want: map[int]uint64{17: 0x78c89cb84e8c8ad1, 1000: 0x99e234d3ba2e5a2e},
	},
	{
		name: "storage",
		spec: func(n int) Spec { return StorageConfig{N: n, ObjectsPerNode: 1, Replicas: 2, SlotsPerNode: 4} },
		want: map[int]uint64{17: 0xcfb34c8c73339eea, 1000: 0x917cb681c47bb1ba},
	},
	{
		name: "live",
		spec: func(n int) Spec { return LiveConfig{Profile: UnitBandwidth(n)} },
		want: map[int]uint64{17: 0xc56f61fda6de9cbd, 1000: 0x2bbea01938fc3740},
	},
	{
		name: "handshake",
		spec: func(n int) Spec { return HandshakeConfig{Profile: UnitBandwidth(n), Rounds: 6} },
		want: map[int]uint64{17: 0xe31905a7d005ce61, 1000: 0x6a01f39bbe200e3b},
	},
}

// stripTiming clears the fields that legitimately vary between identical
// runs (wall clock, requested budget), so reports can be DeepEqual-ed.
func stripTiming(r Report) Report {
	r.Wall = 0
	r.Workers = 0
	return r
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSeedCompatGoldens(t *testing.T) {
	// The golden table itself, plus the option-invariance sweep: worker
	// budgets 1/2/8 must all hash to the pinned value — they are pure speed
	// knobs.
	for _, tc := range compatCases {
		t.Run(tc.name, func(t *testing.T) {
			for n, want := range tc.want {
				var ref Report
				for i, w := range []int{1, 2, 8} {
					rep, err := Run(tc.spec(n), WithSeed(compatSeed), WithWorkers(w))
					if err != nil {
						t.Fatalf("n=%d workers=%d: %v", n, w, err)
					}
					if got := hashReport(rep); got != want {
						t.Fatalf("n=%d workers=%d: report hash %#016x, pinned %#016x", n, w, got, want)
					}
					if i == 0 {
						ref = rep
						continue
					}
					if !reflect.DeepEqual(stripTiming(rep), stripTiming(ref)) {
						t.Fatalf("n=%d workers=%d: report differs beyond the hashed fields", n, w)
					}
				}
			}
		})
	}
}

func TestSeedCompatLiveEngines(t *testing.T) {
	// The engine axis must be invisible too: the goroutine-per-peer
	// substrate yields the identical report under perfect sync, matching
	// the same pinned hash as the sharded default.
	for _, n := range []int{17, 1000} {
		spec := LiveConfig{Profile: UnitBandwidth(n)}
		sharded, err := Run(spec, WithSeed(compatSeed))
		if err != nil {
			t.Fatal(err)
		}
		goro, err := Run(spec, WithSeed(compatSeed), WithEngine(LiveGoroutine))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripTiming(goro), stripTiming(sharded)) {
			t.Fatalf("n=%d: goroutine engine report differs from sharded", n)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil); err == nil {
		t.Error("accepted a nil spec")
	}
	if _, err := Run(RumorConfig{N: 64, Algorithm: Dating}, WithWorkers(0)); err == nil {
		t.Error("accepted a zero worker budget")
	}
	if _, err := Run(RumorConfig{N: 64, Algorithm: Dating}, WithEngine(7)); err == nil {
		t.Error("accepted an unknown engine")
	}
	if _, err := Run(RumorConfig{}); err == nil {
		t.Error("accepted an empty rumor config")
	}
}

func TestRunTraceReplaysTrajectory(t *testing.T) {
	var rounds []int
	var progress []int
	rep, err := Run(RumorConfig{N: 128, Algorithm: Dating},
		WithSeed(3), WithTrace(func(round, p int) {
			rounds = append(rounds, round)
			progress = append(progress, p)
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != rep.Rounds {
		t.Fatalf("trace saw %d rounds, report has %d", len(rounds), rep.Rounds)
	}
	for i := range rounds {
		if rounds[i] != i+1 {
			t.Fatalf("trace rounds out of order: %v", rounds)
		}
	}
	if !intsEqual(progress, rep.Trajectory) {
		t.Fatalf("trace progress %v differs from trajectory %v", progress, rep.Trajectory)
	}
}
