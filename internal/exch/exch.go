// Package exch is the owner-range exchange kernel shared by every flat
// engine of the repository: the core round engine, the Arranger, the seeded
// Service rounds and the live message runtime's deliver and route phases all
// scatter records into per-(worker, owner) chunks, prefix the owners'
// incoming totals into base offsets with a tiny serial pass, and let each
// owner counting-sort (or concatenate) its own contiguous destination range
// in parallel.
//
// The kernel packages that idiom once:
//
//   - Partition is the destination split: owner o owns the contiguous id
//     range [Start(o), End(o)), and Owner(d) finds d's owner in O(1). The
//     cuts are a pure function of (n, parts) and never affect results —
//     only which worker builds which buckets.
//   - Exchange[T] is the chunked scatter: during a fanout each worker w
//     appends (key, value) records into its private chunk row — one small
//     buffer per (worker, owner) pair, filled in scan order. A serial
//     Prefix (O(workers·owners), no length-n scan) turns per-owner totals
//     into base offsets; then each owner calls Fill to counting-sort its
//     own range into a flat output slice with a count array covering only
//     that range. Because workers scan ascending shards and Fill replays
//     chunks in worker order, every bucket ends up holding its records in
//     global scan order — the layout all the engines' determinism proofs
//     rest on.
//
// Scratch is O(n + records) regardless of the worker count: the owners'
// count arrays partition [0, n) and the chunks together hold exactly the
// round's records.
//
// Concurrency contract: Reset and Prefix are serial; ClearWorker, Record
// and RecordTo may run concurrently for distinct w; Fill and SetBase/Flush
// may run concurrently for distinct owners, strictly after Prefix (or an
// external base assignment) and the barrier that ends the record phase.
// Worker-private mutable state never shares a cache line with another
// worker's: every chunk header ends in a par.Pad, so the slice-length
// writes of Record (rows), Flush (rows) and SetBase (columns) never touch
// a line another worker is writing.
package exch

import "repro/internal/par"

// Partition splits the destination space [0, n) into parts contiguous
// uniform id ranges, one per owner.
type Partition struct {
	N     int // destination space size
	Parts int // number of owners
}

// Start returns the first destination of owner o's range.
func (p Partition) Start(o int) int { return p.N * o / p.Parts }

// End returns one past the last destination of owner o's range.
func (p Partition) End(o int) int { return p.N * (o + 1) / p.Parts }

// Range returns owner o's destination range [lo, hi).
func (p Partition) Range(o int) (lo, hi int) { return p.Start(o), p.End(o) }

// Owner returns the owner of destination d: the largest o with
// Start(o) <= d. Owners with empty ranges are never returned.
func (p Partition) Owner(d int) int { return ((d+1)*p.Parts - 1) / p.N }

// chunk holds the records one worker addressed to one owner, in scan order.
// keys drive Fill's counting sort; RecordTo-style concat exchanges leave
// them empty and len(vals) is the authoritative length.
type chunk[T any] struct {
	keys []int32
	vals []T
	// off is this chunk's write offset in the destination slice, set by
	// SetBase and consumed by Flush.
	off int
	_   par.Pad
}

// Exchange is a reusable per-(worker, owner) chunk exchange over a value
// type T. The zero value is ready; Reset sizes it for a round.
type Exchange[T any] struct {
	part    Partition
	workers int
	ch      []chunk[T] // ch[w*part.Parts+o], rows beyond workers never read
	base    []int32    // per-owner base offsets, set by Prefix
	counts  [][]int32  // per-owner count scratch over that owner's range
}

// Owner returns the owner of destination d under the current partition.
func (ex *Exchange[T]) Owner(d int) int { return ex.part.Owner(d) }

// Reset sizes the exchange for a round of workers record rows over the
// given destination partition. It must be called serially, before the
// record fanout; it does not clear chunk contents — each worker clears its
// own row with ClearWorker inside the fanout, keeping the O(workers·owners)
// clearing off the serial path.
func (ex *Exchange[T]) Reset(workers int, part Partition) {
	ex.workers = workers
	if ex.part == part && len(ex.ch) >= workers*part.Parts {
		return
	}
	need := workers * part.Parts
	if ex.part.Parts != part.Parts || cap(ex.ch) < need {
		// The row stride changed (or the matrix grew): old chunk buffers
		// would land on the wrong (w, o) cells, so start clean.
		ex.ch = make([]chunk[T], need)
	} else {
		ex.ch = ex.ch[:need]
	}
	ex.part = part
	if len(ex.base) < part.Parts {
		ex.base = make([]int32, part.Parts)
	}
	if len(ex.counts) < part.Parts {
		ex.counts = append(ex.counts, make([][]int32, part.Parts-len(ex.counts))...)
	}
}

// ClearWorker empties worker w's chunk row, keeping capacity. Safe to call
// concurrently for distinct w.
func (ex *Exchange[T]) ClearWorker(w int) {
	row := ex.ch[w*ex.part.Parts : (w+1)*ex.part.Parts]
	for o := range row {
		row[o].keys = row[o].keys[:0]
		row[o].vals = row[o].vals[:0]
	}
}

// Record appends one (key, value) record from worker w, addressed to the
// owner of key's destination range. Safe to call concurrently for distinct w.
func (ex *Exchange[T]) Record(w int, key int32, v T) {
	c := &ex.ch[w*ex.part.Parts+ex.part.Owner(int(key))]
	c.keys = append(c.keys, key)
	c.vals = append(c.vals, v)
}

// RecordTo appends a value from worker w directly to owner o's chunk,
// without a key — the concat form used by exchanges whose owners are not
// destination ids (e.g. the live route's per-delay buffers). Chunks written
// with RecordTo must be drained with SetBase/Flush, not Fill.
func (ex *Exchange[T]) RecordTo(w, o int, v T) {
	c := &ex.ch[w*ex.part.Parts+o]
	c.vals = append(c.vals, v)
}

// ChunkLen returns the number of records worker w addressed to owner o.
func (ex *Exchange[T]) ChunkLen(w, o int) int {
	return len(ex.ch[w*ex.part.Parts+o].vals)
}

// Total returns owner o's incoming record total. Valid only between the
// record barrier and the next ClearWorker.
func (ex *Exchange[T]) Total(o int) int {
	t := 0
	for w := 0; w < ex.workers; w++ {
		t += len(ex.ch[w*ex.part.Parts+o].vals)
	}
	return t
}

// Prefix sums each owner's incoming chunk totals and prefixes them into
// per-owner base offsets, returning the grand total. This is the serial
// exchange pass: O(workers·owners), no length-n scan.
func (ex *Exchange[T]) Prefix() int32 {
	var total int32
	for o := 0; o < ex.part.Parts; o++ {
		var t int32
		for w := 0; w < ex.workers; w++ {
			t += int32(len(ex.ch[w*ex.part.Parts+o].vals))
		}
		ex.base[o], total = total, total+t
	}
	return total
}

// Base returns owner o's base offset as computed by the last Prefix.
func (ex *Exchange[T]) Base(o int) int32 { return ex.base[o] }

// Fill counting-sorts owner o's incoming records into out, writing the
// bucket offsets of o's destination range into off: after the owner fanout,
// bucket v holds out[off[v]:off[v+1]] in global scan order (chunks are
// replayed in worker order, and each worker recorded in scan order). off
// must have length >= part.N+1; entries outside o's range are left for
// their owners, and off[N] for the serial epilogue (use the Prefix total).
// Fill returns this owner's end offset — equal to the next owner's base —
// so a consumer can walk the owner's records [Base(o), end) without
// reading an offset another owner is writing concurrently. Call only after
// Prefix, once per owner per round, concurrently for distinct owners.
func (ex *Exchange[T]) Fill(o int, off []int32, out []T) int32 {
	lo, hi := ex.part.Range(o)
	counts := ex.counts[o]
	if cap(counts) < hi-lo {
		counts = make([]int32, hi-lo)
		ex.counts[o] = counts
	} else {
		counts = counts[:hi-lo]
		for i := range counts {
			counts[i] = 0
		}
	}
	for w := 0; w < ex.workers; w++ {
		for _, k := range ex.ch[w*ex.part.Parts+o].keys {
			counts[int(k)-lo]++
		}
	}
	acc := ex.base[o]
	for v := lo; v < hi; v++ {
		off[v] = acc
		c := counts[v-lo]
		counts[v-lo] = acc
		acc += c
	}
	for w := 0; w < ex.workers; w++ {
		c := &ex.ch[w*ex.part.Parts+o]
		for i, k := range c.keys {
			out[counts[int(k)-lo]] = c.vals[i]
			counts[int(k)-lo]++
		}
	}
	return acc
}

// SetBase assigns owner o's chunks consecutive write offsets starting at
// base, in worker order, and returns the end offset — the serial placement
// pass of a concat exchange (no counting sort, e.g. the live route). Safe
// to call concurrently for distinct owners.
func (ex *Exchange[T]) SetBase(o, base int) int {
	for w := 0; w < ex.workers; w++ {
		c := &ex.ch[w*ex.part.Parts+o]
		c.off = base
		base += len(c.vals)
	}
	return base
}

// Flush copies chunk (w, o) into dst at the offset SetBase assigned and
// empties it. Safe to call concurrently for distinct w.
func (ex *Exchange[T]) Flush(w, o int, dst []T) {
	c := &ex.ch[w*ex.part.Parts+o]
	if len(c.vals) == 0 {
		return
	}
	copy(dst[c.off:], c.vals)
	c.vals = c.vals[:0]
}
