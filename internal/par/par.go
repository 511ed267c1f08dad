// Package par holds the concurrency primitives the engines share: a
// deterministic fork-join fan-out over a fixed worker count, and the pad
// that keeps each worker's hot state on cache lines of its own.
package par

import "sync"

// Do runs f(w) for w in [0, workers); w == 0 runs inline on the calling
// goroutine, so workers == 1 spawns nothing (the serial paths stay free of
// scheduling). Do returns after every worker finishes — the barriers on
// both sides are the only synchronization the flat engines rely on: each
// worker touches only its own scratch plus disjoint regions of shared
// arrays, and the barrier publishes the writes.
func Do(workers int, f func(w int)) {
	if workers == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f(w)
		}(w)
	}
	f(0)
	wg.Wait()
}

// CacheLine is the coherence granule, in bytes, that worker-private state
// is kept apart by (64 B on every x86-64 and most arm64 parts).
const CacheLine = 64

// Pad ends every per-worker struct the engines keep in a slice indexed by
// worker. Two workers writing the same cache line — even to distinct
// fields — make the line bounce between cores on every write (false
// sharing); a trailing Pad puts at least CacheLine bytes between worker w's
// last field and worker w+1's first, so no line ever holds hot state of two
// workers, whatever the slice's alignment.
type Pad [CacheLine]byte
