package exch

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/par"
	"repro/internal/rng"
)

func TestPartitionCovers(t *testing.T) {
	// The owner ranges must tile [0, n): every destination belongs to
	// exactly the owner whose range holds it, for every (n, parts) shape —
	// including parts > n, where some owners get empty ranges.
	for _, tc := range []struct{ n, parts int }{
		{1, 1}, {17, 2}, {100, 3}, {1000, 8}, {1000, 16}, {3, 16}, {10, 4},
	} {
		p := Partition{N: tc.n, Parts: tc.parts}
		if p.Start(0) != 0 || p.End(tc.parts-1) != tc.n {
			t.Fatalf("n=%d parts=%d: ranges do not span [0, n)", tc.n, tc.parts)
		}
		for o := 1; o < tc.parts; o++ {
			if p.Start(o) != p.End(o-1) {
				t.Fatalf("n=%d parts=%d: gap between owners %d and %d", tc.n, tc.parts, o-1, o)
			}
		}
		for d := 0; d < tc.n; d++ {
			o := p.Owner(d)
			if o < 0 || o >= tc.parts {
				t.Fatalf("n=%d parts=%d: owner(%d) = %d out of range", tc.n, tc.parts, d, o)
			}
			if lo, hi := p.Range(o); d < lo || d >= hi {
				t.Fatalf("n=%d parts=%d: owner(%d) = %d but range is [%d, %d)", tc.n, tc.parts, d, o, lo, hi)
			}
		}
	}
}

// record scatters count pseudo-random (key, value) pairs per worker into ex
// (in scan order per worker, as the engines do), and returns the reference
// bucket layout: want[d] holds d's values in (worker, scan) order.
func record(ex *Exchange[int32], workers, n, count int, seed uint64) (want [][]int32) {
	ex.Reset(workers, Partition{N: n, Parts: workers})
	want = make([][]int32, n)
	s := rng.New(seed)
	type rec struct{ k, v int32 }
	perWorker := make([][]rec, workers)
	for w := 0; w < workers; w++ {
		ex.ClearWorker(w)
		for i := 0; i < count; i++ {
			k, v := int32(s.Intn(n)), int32(s.Intn(n))
			ex.Record(w, k, v)
			perWorker[w] = append(perWorker[w], rec{k, v})
		}
	}
	for w := 0; w < workers; w++ {
		for _, r := range perWorker[w] {
			want[r.k] = append(want[r.k], r.v)
		}
	}
	return want
}

// drain runs the Prefix+Fill pass and returns the flat output and offsets.
func drain(ex *Exchange[int32], n, workers int) (off []int32, out []int32) {
	total := ex.Prefix()
	off = make([]int32, n+1)
	out = make([]int32, total)
	ends := make([]int32, workers)
	for o := 0; o < workers; o++ {
		ends[o] = ex.Fill(o, off, out)
	}
	off[n] = total
	for o := 0; o+1 < workers; o++ {
		if ends[o] != ex.Base(o+1) {
			panic("Fill end does not meet the next owner's base")
		}
	}
	return off, out
}

func TestFillDisjointAndStable(t *testing.T) {
	// Fill must produce buckets in destination order, each holding its
	// values in global scan order (stability), with owners writing disjoint
	// ranges that exactly tile the output.
	for _, tc := range []struct{ n, workers, count int }{
		{1, 1, 3}, {17, 2, 10}, {100, 3, 40}, {1000, 8, 200}, {1000, 16, 50}, {5, 9, 4},
	} {
		var ex Exchange[int32]
		want := record(&ex, tc.workers, tc.n, tc.count, 5)
		off, out := drain(&ex, tc.n, tc.workers)
		if int(off[tc.n]) != len(out) || len(out) != tc.workers*tc.count {
			t.Fatalf("n=%d workers=%d: totals do not close the offset table", tc.n, tc.workers)
		}
		for v := 0; v < tc.n; v++ {
			got := out[off[v]:off[v+1]]
			if len(got) != len(want[v]) || (len(got) > 0 && !reflect.DeepEqual(got, want[v])) {
				t.Fatalf("n=%d workers=%d: bucket %d = %v, want %v", tc.n, tc.workers, v, got, want[v])
			}
		}
	}
}

func TestScratchReuse(t *testing.T) {
	// Reusing one Exchange across rounds — including shape changes that
	// force chunk-matrix reallocation and shrink the worker count — must
	// leave no stale state: each round's output equals a fresh Exchange's.
	var reused Exchange[int32]
	shapes := []struct{ n, workers, count int }{
		{100, 4, 30}, {100, 4, 10}, {1000, 8, 50}, {100, 4, 30}, {50, 2, 0}, {100, 4, 30},
	}
	for round, tc := range shapes {
		record(&reused, tc.workers, tc.n, tc.count, uint64(round))
		gotOff, gotOut := drain(&reused, tc.n, tc.workers)
		var fresh Exchange[int32]
		record(&fresh, tc.workers, tc.n, tc.count, uint64(round))
		wantOff, wantOut := drain(&fresh, tc.n, tc.workers)
		if !reflect.DeepEqual(gotOff, wantOff) || !reflect.DeepEqual(gotOut, wantOut) {
			t.Fatalf("round %d (n=%d workers=%d): reused exchange diverged from fresh", round, tc.n, tc.workers)
		}
	}
}

func TestConcatSetBaseFlush(t *testing.T) {
	// The RecordTo/SetBase/Flush concat form must place owner o's values as
	// base..end in worker order, and Flush must empty the chunks so the next
	// round starts clean without ClearWorker.
	var ex Exchange[int32]
	const owners, workers = 3, 4
	ex.Reset(workers, Partition{N: owners, Parts: owners})
	for w := 0; w < workers; w++ {
		ex.ClearWorker(w)
	}
	for pass := 0; pass < 2; pass++ {
		want := make([][]int32, owners)
		for w := 0; w < workers; w++ {
			for o := 0; o < owners; o++ {
				for k := 0; k < (w+o+pass)%3; k++ {
					v := int32(100*pass + 10*w + o)
					ex.RecordTo(w, o, v)
					want[o] = append(want[o], v)
				}
			}
		}
		for o := 0; o < owners; o++ {
			base := 0
			end := ex.SetBase(o, base)
			if end-base != ex.Total(o) {
				t.Fatalf("pass %d owner %d: SetBase end %d != total %d", pass, o, end, ex.Total(o))
			}
			dst := make([]int32, end)
			for w := 0; w < workers; w++ {
				ex.Flush(w, o, dst)
			}
			if !reflect.DeepEqual(dst, want[o]) && len(want[o]) > 0 {
				t.Fatalf("pass %d owner %d: flushed %v, want %v", pass, o, dst, want[o])
			}
			if ex.Total(o) != 0 {
				t.Fatalf("pass %d owner %d: Flush left %d records behind", pass, o, ex.Total(o))
			}
		}
	}
}

func TestChunkHeadersOwnCacheLines(t *testing.T) {
	// Record rewrites a chunk header's slice lengths once per record, from
	// the chunk's worker; Flush and SetBase write them from workers and
	// owners. Every field before the trailing pad counts as hot, so a field
	// added anywhere but after the pad is covered too: chunk i's hot
	// fields and chunk i+1's must sit at least a cache line apart, which
	// separates both rows (workers) and columns (owners).
	var c chunk[int32]
	typ := reflect.TypeOf(c)
	pad := typ.Field(typ.NumField() - 1)
	if pad.Type != reflect.TypeOf(par.Pad{}) {
		t.Fatalf("chunk must end in a par.Pad, ends in %s %s", pad.Name, pad.Type)
	}
	if gap := unsafe.Sizeof(c) - pad.Offset + unsafe.Offsetof(c.keys); gap < par.CacheLine {
		t.Fatalf("adjacent chunks' hot fields %d B apart, want >= %d", gap, par.CacheLine)
	}
}
