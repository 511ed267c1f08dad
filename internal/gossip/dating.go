package gossip

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rng"
)

// datingStep adapts the dating service as a rumor spreading round: run
// Algorithm 1, then transfer the rumor along every date whose sender was
// informed at the start of the round.
//
// Per the paper, the protocol is oblivious: informed nodes keep issuing
// receiving requests and uninformed nodes keep issuing offers (a date from
// an uninformed sender simply carries nothing useful). This wastes some
// bandwidth but keeps the protocol simple and churn-tolerant, and the
// O(log n) bound holds regardless (Theorem 4).
//
// Every round runs on the seeded engine: the per-round seed is one draw
// off the run stream, and the seeded path derives its randomness per node
// and per rendezvous, so the spreading run is bit-identical for every
// budget size — the worker count is a pure speed knob. The round grabs
// the caller's worker plus whatever spare tokens b has that round; a nil
// budget runs serially.
func datingStep(svc *core.Service, b *par.Budget) stepFunc {
	return func(st *state, s *rng.Stream) {
		var alive func(i int) bool
		if anyDead(st.alive) {
			// st.alive is fixed for the duration of the round, so the
			// closure is safe for the engine's concurrent workers.
			alive = func(i int) bool { return st.alive[i] }
		}
		// One draw per round whatever the worker count, so the run stream
		// evolves identically for every budget size.
		seed := s.Uint64()
		var res core.RoundResult
		var err error
		b.Use(0, func(workers int) { res, err = svc.RunRoundSeeded(seed, workers, alive) })
		if err != nil {
			// Run validated the configuration; a failure here is a
			// programming error, not a runtime condition.
			panic(fmt.Sprintf("gossip: seeded dating round failed: %v", err))
		}
		applyDates(st, res.Dates)
	}
}

// applyDates folds one round's dates into the spreading state: every date
// consumes bandwidth on both sides whether or not it carries the rumor
// (loads therefore count all dates, which by construction remain within
// the profile), and the rumor crosses a date iff the sender was informed
// at the start of the round.
func applyDates(st *state, dates []core.Date) {
	for _, d := range dates {
		st.out[d.Sender]++
		st.in[d.Receiver]++
		if st.informed[d.Sender] {
			st.next[d.Receiver] = true
		}
	}
}

func anyDead(alive []bool) bool {
	for _, a := range alive {
		if !a {
			return true
		}
	}
	return false
}

// PhaseBoundaries analyzes an I_t history against the three-phase structure
// of Theorem 4's proof: phase 1 ends when I_t reaches max(m/n, log n);
// phase 2 ends when I_t reaches m/2; phase 3 ends at completion. It returns
// the 1-based round at which each phase ended (0 if never reached).
func PhaseBoundaries(itHistory []int, m, n int) (endPhase1, endPhase2, endPhase3 int) {
	if n <= 0 {
		return 0, 0, 0
	}
	log2n := 0
	for v := 1; v < n; v <<= 1 {
		log2n++
	}
	threshold1 := m / n
	if log2n > threshold1 {
		threshold1 = log2n
	}
	if threshold1 < 1 {
		threshold1 = 1
	}
	threshold2 := m / 2
	for i, it := range itHistory {
		round := i + 1
		if endPhase1 == 0 && it >= threshold1 {
			endPhase1 = round
		}
		if endPhase2 == 0 && it >= threshold2 {
			endPhase2 = round
		}
	}
	if len(itHistory) > 0 {
		endPhase3 = len(itHistory)
	}
	return endPhase1, endPhase2, endPhase3
}
