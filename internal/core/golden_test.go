package core

// Golden pins for the round engine. The caller-stream hashes below were
// produced by the pre-radix engine (per-worker length-n count arrays,
// commit 35adb4e); the seeded hashes by the separate seeded round body
// that preceded the shared one (commit a96ea15). They freeze the engine's
// output bit-for-bit — Date order included — at every worker count, so any
// rewrite of the scatter/exchange/sort pipeline that changes a single
// bucket's layout fails loudly.

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/rng"
)

// hashRound folds a RoundResult — counters, the full date sequence, and the
// per-node load vectors — into one order-sensitive hash.
func hashRound(res RoundResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wr := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wr(res.OffersSent)
	wr(res.RequestsSent)
	wr(len(res.Dates))
	for _, d := range res.Dates {
		wr(d.Sender)
		wr(d.Receiver)
	}
	for _, c := range res.PerNodeOut {
		wr(c)
	}
	for _, c := range res.PerNodeIn {
		wr(c)
	}
	return h.Sum64()
}

func TestEngineGoldenSerial(t *testing.T) {
	// Three consecutive serial-stream rounds at n=1000, b=2.
	want := []uint64{0x6420e5323018ee4d, 0x33c6b6739a16387, 0x54e282f165b8cd37}
	const n, seed = 1000, 12345
	sel, err := NewUniformSelector(n)
	if err != nil {
		t.Fatal(err)
	}
	svc := mustService(t, bandwidth.Homogeneous(n, 2), sel)
	s := rng.New(seed)
	for r, w := range want {
		if got := hashRound(svc.RunRound(s)); got != w {
			t.Fatalf("serial round %d: hash %#x, want %#x (pre-radix engine output changed)", r, got, w)
		}
	}
}

func TestEngineGoldenParallel(t *testing.T) {
	// Three seeded rounds (seeds drawn off rng.New(12345)) at each of
	// workers {1, 2, 4, 8} on the serial config: the seeded path is
	// worker-count independent, so one pin list covers every count.
	want := []uint64{0xf744811d34e7ad5a, 0xd68b7f6bafd0e671, 0x7098f653814f0192}
	const n, seed = 1000, 12345
	sel, err := NewUniformSelector(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		svc := mustService(t, bandwidth.Homogeneous(n, 2), sel)
		seeds := rng.New(seed)
		for r, w := range want {
			res, err := svc.RunRoundSeeded(seeds.Uint64(), workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := hashRound(res); got != w {
				t.Fatalf("workers=%d round %d: hash %#x, want %#x (seeded engine output changed)",
					workers, r, got, w)
			}
		}
	}
}

func TestEngineGoldenFiltered(t *testing.T) {
	// One seeded round with every fifth node dead, at workers 1 and 4.
	const want uint64 = 0xfd1b9b440bd26aa1
	const n, seed = 1000, 12346
	sel, err := NewUniformSelector(n)
	if err != nil {
		t.Fatal(err)
	}
	alive := func(i int) bool { return i%5 != 0 }
	for _, workers := range []int{1, 4} {
		svc := mustService(t, bandwidth.Homogeneous(n, 2), sel)
		res, err := svc.RunRoundSeeded(seed, workers, alive)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashRound(res); got != want {
			t.Fatalf("filtered workers=%d: hash %#x, want %#x (seeded engine output changed)",
				workers, got, want)
		}
	}
}

func TestEngineGoldenSkewed(t *testing.T) {
	// A Zipf profile under a weighted selector: skewed sender shards and
	// non-uniform destination load exercise the radix exchange's unbalanced
	// chunks. The caller-stream round is pinned to the pre-radix engine's
	// output; the seeded round at workers {1, 2, 4, 8} to one hash.
	const wantSerial, wantSeeded uint64 = 0x5f01256cc85857e2, 0x35493ce71014a916
	s := rng.New(7)
	p, err := bandwidth.Zipf(700, 1.1, 8, 2, s)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, p.N())
	for i := range weights {
		weights[i] = float64(i%5 + 1)
	}
	sel, err := NewWeightedSelector(weights)
	if err != nil {
		t.Fatal(err)
	}
	if got := hashRound(mustService(t, p, sel).RunRound(rng.NewStreams(12347, 1)[0])); got != wantSerial {
		t.Fatalf("zipf serial: hash %#x, want %#x (pre-radix engine output changed)", got, wantSerial)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := mustService(t, p, sel).RunRoundSeeded(12347, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashRound(res); got != wantSeeded {
			t.Fatalf("zipf seeded workers=%d: hash %#x, want %#x (seeded engine output changed)",
				workers, got, wantSeeded)
		}
	}
}
