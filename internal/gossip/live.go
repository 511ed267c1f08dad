package gossip

import (
	"fmt"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/rng"
	"repro/internal/simnet"
)

// LiveConfig parameterizes a fully message-level spreading run: the dating
// service's three-step handshake (scatter, answer, payload) executed peer
// by peer on a message engine. Nothing is shared between peers except
// messages; each peer's only state is whether it knows the rumor. This is
// the protocol exactly as a real deployment would run it.
type LiveConfig struct {
	Profile bandwidth.Profile
	// Selector defaults to uniform over the profile's nodes.
	Selector core.Selector
	Source   int
	// MaxDatingRounds caps the run (0 = generous log-based default).
	MaxDatingRounds int
}

// LiveResult reports a message-level spreading run.
type LiveResult struct {
	DatingRounds int
	Completed    bool
	History      []int // informed count after each dating round
	// SentHistory is the number of messages routed per dating round (the
	// three network rounds of the handshake; the first entry also counts
	// the prologue scatter).
	SentHistory []int
	// MaxInPayloads is the largest number of payload messages any node
	// received in one dating round; the dating service guarantees it never
	// exceeds that node's bin under the perfect-sync model (latency models
	// may bunch deliveries of adjacent rounds).
	MaxInPayloads int
	Traffic       simnet.Stats
}

// livePeerState is the per-peer protocol state. Peer i writes only index i
// of each slice, so concurrent peers never race; the engine's round barrier
// publishes the writes to the coordinator.
type livePeerState struct {
	informed   []bool
	inPayloads []int // payloads received in the current dating round
	// pendOffers/pendRequests buffer control messages that arrive outside
	// their handshake phase — possible only under latency models, so both
	// stay nil (and cost nothing) under perfect sync.
	pendOffers   [][]int32
	pendRequests [][]int32
}

// RunLive executes rumor spreading with the dating-service handshake on a
// live message engine.
func RunLive(cfg LiveConfig, o LiveOptions) (LiveResult, error) {
	n := cfg.Profile.N()
	if n == 0 {
		return LiveResult{}, fmt.Errorf("gossip: live run needs a profile")
	}
	if _, err := cfg.Profile.Ratio(); err != nil {
		return LiveResult{}, err
	}
	if cfg.Source < 0 || cfg.Source >= n {
		return LiveResult{}, fmt.Errorf("gossip: source %d out of range [0,%d)", cfg.Source, n)
	}
	d, err := newLiveDriver(n, cfg.MaxDatingRounds, o)
	if err != nil {
		return LiveResult{}, err
	}
	sel := cfg.Selector
	if sel == nil {
		u, err := core.NewUniformSelector(n)
		if err != nil {
			return LiveResult{}, err
		}
		sel = u
	}
	if sel.N() != n {
		return LiveResult{}, fmt.Errorf("gossip: selector addresses %d nodes, profile has %d", sel.N(), n)
	}

	st := &livePeerState{
		informed:   make([]bool, n),
		inPayloads: make([]int, n),
	}
	if o.Net != nil && o.Net.MaxDelay() > 1 {
		// Latency can deliver offers and demands outside their phase; give
		// every rendezvous a holding buffer until its next matching round.
		st.pendOffers = make([][]int32, n)
		st.pendRequests = make([][]int32, n)
	}
	st.informed[cfg.Source] = true
	if err := d.start(liveEmitStep(cfg.Profile, sel, st)); err != nil {
		return LiveResult{}, err
	}

	// A one-round prologue runs the first scatter (phase 0 of dating round
	// 1, no payloads in flight yet). After it, every dating round runs
	// phases 1 and 2 of the current round plus phase 0 of the next, which
	// absorbs the payloads — so the informed count sampled after each round
	// is exact for that round.
	var res LiveResult
	r := d.loop(1, 3, func(int) bool {
		count := 0
		for i := 0; i < n; i++ {
			if st.informed[i] {
				count++
			}
			if st.inPayloads[i] > res.MaxInPayloads {
				res.MaxInPayloads = st.inPayloads[i]
			}
			st.inPayloads[i] = 0 // counted afresh each dating round
		}
		res.History = append(res.History, count)
		return count == n
	})
	res.DatingRounds, res.Completed, res.SentHistory, res.Traffic = r.rounds, r.completed, r.sent, r.traffic
	return res, nil
}

// liveEmitStep builds the per-peer handshake state machine, in the sharded
// runtime's emit form. Network round r is phase r % 3 of a dating round:
//
//	phase 0: scatter offers and receiving requests;
//	phase 1: act as rendezvous — match, answer offers with partner address;
//	phase 2: senders with a partner transmit the payload, carrying the
//	         rumor bit.
//
// Unlike the phase-switched legacy version, arrivals are handled by kind,
// whenever they come in: payloads are absorbed immediately, answers are
// acted on immediately, and offers/demands that miss their matching round
// (possible only under latency models) wait in the peer's pending buffers
// for the next one. Under the perfect-sync model every message arrives in
// its natural phase, so this reduces bit-for-bit to the legacy behavior.
func liveEmitStep(profile bandwidth.Profile, sel core.Selector, st *livePeerState) live.StepFunc {
	return func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) {
		var offers, requests []int32
		for _, m := range inbox {
			switch m.Kind {
			case core.KindPayload:
				st.inPayloads[node]++
				if m.A == 1 {
					st.informed[node] = true
				}
			case core.KindAnswer:
				if m.A >= 0 {
					rumor := int64(0)
					if st.informed[node] {
						rumor = 1
					}
					emit(simnet.Message{To: int(m.A), Kind: core.KindPayload, A: rumor})
				}
			case core.KindOffer:
				offers = append(offers, int32(m.From))
			case core.KindRequest:
				requests = append(requests, int32(m.From))
			}
		}

		switch round % 3 {
		case 0: // scatter
			for k := 0; k < profile.Out[node]; k++ {
				emit(simnet.Message{To: sel.Pick(s), Kind: core.KindOffer})
			}
			for k := 0; k < profile.In[node]; k++ {
				emit(simnet.Message{To: sel.Pick(s), Kind: core.KindRequest})
			}

		case 1: // rendezvous: match everything that made it here in time
			if st.pendOffers != nil {
				// Earlier arrivals first, then this round's, so the match
				// sees requests in arrival order. The merged slices alias
				// the pending backing arrays, which are cleared below and
				// not touched again until this call returns.
				offers = append(st.pendOffers[node], offers...)
				requests = append(st.pendRequests[node], requests...)
				st.pendOffers[node] = st.pendOffers[node][:0]
				st.pendRequests[node] = st.pendRequests[node][:0]
			}
			q := len(offers)
			if len(requests) < q {
				q = len(requests)
			}
			core.MatchRendezvous(offers, requests, s, func(sender, receiver int32) {
				emit(simnet.Message{To: int(sender), Kind: core.KindAnswer, A: int64(receiver)})
			})
			for _, o := range offers[q:] {
				emit(simnet.Message{To: int(o), Kind: core.KindAnswer, A: -1})
			}
			return
		}

		// Off-phase control arrivals (latency models only) wait for the
		// peer's next matching round.
		if len(offers) > 0 {
			st.pendOffers[node] = append(st.pendOffers[node], offers...)
		}
		if len(requests) > 0 {
			st.pendRequests[node] = append(st.pendRequests[node], requests...)
		}
	}
}
