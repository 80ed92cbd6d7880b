package memsim

import "math"

// Per-position symbol states at read time for ExactCapabilityExceeded.
const (
	symClean = iota
	symWrong
	symErased
)

// ExactCapabilityExceeded returns the exact probability of the
// capability_exceeded event for a configuration without scrubbing and
// with immediate fault location; ok is false for any other
// configuration (and for a nil code). It is the probability under the
// configured rates, so a tilted campaign's weighted estimate targets
// the same value.
//
// The Markov chains count a struck symbol as wrong for good, but the
// simulator flips real bits and a bit flipped twice reads correct
// again, so the chains' Fail probability exceeds this value (0.92151
// against 0.91770 for simplex RS(18,16) at 6e-4/bit-hour, 2e-4/symbol-
// hour over 48 h). Without scrubbing every (module, symbol) evolves
// independently, which gives the closed form: at the horizon t a
// symbol is erased (permanently faulted, hence located) with
// probability a = 1-exp(-λE·t); otherwise it reads wrong with
// probability b = 1-((1+exp(-2λt))/2)^m, the chance that some bit saw
// an odd number of SEUs. Positions are then folded one at a time over
// the (errors, erasures) counts still within capability; duplex words
// go through the arbiter's masking first — a position erased in one
// module takes its twin's symbol in both words, one erased in both is
// a shared erasure.
func ExactCapabilityExceeded(cfg Config) (p float64, ok bool) {
	if cfg.Code == nil || cfg.ScrubPeriod > 0 || cfg.DetectionLatency != 0 {
		return 0, false
	}
	n, r := cfg.Code.N(), cfg.Code.Redundancy()
	m := float64(cfg.Code.Field().M())
	a := -math.Expm1(-cfg.LambdaSymbol * cfg.Horizon)
	bitWrong := -math.Expm1(-2*cfg.LambdaBit*cfg.Horizon) / 2
	b := -math.Expm1(m * math.Log1p(-bitWrong))
	state := [3]float64{symClean: (1 - a) * (1 - b), symWrong: (1 - a) * b, symErased: a}

	// outcome is one position's contribution to the two words' error
	// counts and the shared erasure count (e2 unused for simplex).
	type outcome struct {
		e1, e2, f int
		p         float64
	}
	wrong := func(s int) int {
		if s == symWrong {
			return 1
		}
		return 0
	}
	var outs []outcome
	if !cfg.Duplex {
		outs = []outcome{{p: state[symClean]}, {e1: 1, p: state[symWrong]}, {f: 1, p: state[symErased]}}
	} else {
		for s1 := range state {
			for s2 := range state {
				o := outcome{p: state[s1] * state[s2]}
				switch {
				case s1 == symErased && s2 == symErased:
					o.f = 1
				case s1 == symErased:
					o.e1, o.e2 = wrong(s2), wrong(s2)
				case s2 == symErased:
					o.e1, o.e2 = wrong(s1), wrong(s1)
				default:
					o.e1, o.e2 = wrong(s1), wrong(s2)
				}
				outs = append(outs, o)
			}
		}
	}

	// Fold positions over the states still within capability
	// (2e1+f <= r and 2e2+f <= r); mass leaving them is absorbed into
	// p directly, so tiny probabilities keep their precision.
	h := r/2 + 1
	at := func(e1, e2, f int) int { return (e1*h+e2)*(r+1) + f }
	cur := make([]float64, h*h*(r+1))
	next := make([]float64, len(cur))
	cur[0] = 1
	for range n {
		clear(next)
		for e1 := range h {
			for e2 := range h {
				for f := 0; f <= r; f++ {
					mass := cur[at(e1, e2, f)]
					if mass == 0 {
						continue
					}
					for _, o := range outs {
						ne1, ne2, nf := e1+o.e1, e2+o.e2, f+o.f
						if 2*ne1+nf > r || 2*ne2+nf > r {
							p += mass * o.p
						} else {
							next[at(ne1, ne2, nf)] += mass * o.p
						}
					}
				}
			}
		}
		cur, next = next, cur
	}
	return p, true
}
