package campaign

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// TrialStreams names the per-trial random-stream scheme of this
// engine: TrialRNG's PCG-DXSM generator keyed through splitmix64. It
// is stamped into every partial artifact, and Merge, checkpoint resume
// and Partial.MatchesPlan refuse an artifact carrying any other stamp
// (or none, as every artifact written under the earlier math/rand
// reseeding does), so shards drawn from different streams can never
// be folded into one result. Change it whenever a change alters the
// draws a trial sees.
const TrialStreams = "pcg-dxsm/splitmix64/1"

// TrialRNG is a worker-owned generator that Key repositions at the
// start of one trial's stream. A worker builds one with NewTrialRNG,
// keeps it for its whole life, and calls Key(base, trial) at the top
// of every trial: the trial then draws exactly the same values on any
// worker, in any process, after any earlier trials. Keying costs a few
// nanoseconds and allocates nothing.
//
// The embedded *rand.Rand is a plain math/rand generator over the
// keyed source, so code that takes a *rand.Rand (scrub.Exponential,
// burstlen.Dist.Sample, mbusim.System.Trial) draws from the trial's
// stream unchanged.
type TrialRNG struct {
	*rand.Rand
	src pcgSource
}

// NewTrialRNG returns a generator keyed to trial 0 of base 0.
func NewTrialRNG() *TrialRNG {
	r := new(TrialRNG)
	r.Rand = rand.New(&r.src)
	return r
}

// Key positions the generator at the start of trial's stream under
// base. Both 64-bit PCG state words come from a splitmix64 bijection
// of (base, trial): the high word mixes base, the low word mixes trial
// with the high word. Distinct (base, trial) pairs therefore start on
// distinct states for every int trial index, and adjacent trials start
// on unrelated LCG states rather than neighbouring ones.
func (r *TrialRNG) Key(base int64, trial int) { r.src.key(base, trial) }

// pcgSource adapts math/rand/v2's PCG to math/rand's Source64.
type pcgSource struct{ pcg randv2.PCG }

func (s *pcgSource) key(base int64, trial int) {
	hi := splitmix64(uint64(base))
	s.pcg.Seed(hi, splitmix64(uint64(trial)^hi))
}

// Uint64 implements rand.Source64.
func (s *pcgSource) Uint64() uint64 { return s.pcg.Uint64() }

// Int63 implements rand.Source.
func (s *pcgSource) Int63() int64 { return int64(s.pcg.Uint64() >> 1) }

// Seed implements rand.Source: it keys trial 0 of the given base.
func (s *pcgSource) Seed(seed int64) { s.key(seed, 0) }

// splitmix64 is the splitmix64 output function: one golden-ratio
// increment followed by a bijective avalanche mix.
func splitmix64(x uint64) uint64 {
	z := x + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
