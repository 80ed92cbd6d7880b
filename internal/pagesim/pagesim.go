// Package pagesim is a page-level Monte Carlo fault-injection
// simulator for the interleaved memory organization of paper ref [6]
// (internal/interleave): a stored page of depth*n symbols striped
// across depth independent RS codewords, exposed to the mixed fault
// environment of a solid-state mass memory —
//
//   - transient SEUs: Poisson single-bit flips across the stored page;
//   - multi-bit upsets: Poisson burst events flipping a run of
//     adjacent stored bits whose length comes from a configurable
//     distribution (internal/burstlen): fixed at BurstBits, or
//     geometric with mean BurstMeanBits capped at the page size
//     (placement is clamped so every event applies its full sampled
//     length, matching internal/mbusim);
//   - stuck-at columns: permanent whole-symbol failures (a dead
//     physical column) that force the stored symbol to a random value;
//
// with an optional scrub discipline (periodic or exponential, via
// internal/scrub) that decodes, corrects and rewrites the page
// between events. The simulator keeps the page as the stripe arena the
// decoder works on, so a scrub corrects it in place and the
// correction is the rewrite. The page is read once at the mission
// horizon and the outcome classified per stripe and per page.
//
// # Stuck-column detection and location
//
// The paper's central transient-vs-permanent distinction is that a
// located fault is an erasure (RS corrects up to n-k of them) while an
// unlocated one is a random error (only (n-k)/2): permanent faults
// buy the doubled budget only after the controller has detected and
// located them. The simulator therefore keeps two per-column states —
// stuck (physical: the column drives the line) and located (known to
// the controller: passed to the decoder as an erasure) — bridged by a
// configurable detection policy:
//
//   - "immediate" (the default): a column is located the instant it
//     strikes, the historical free-erasures behavior. This policy is
//     bit-identical to earlier releases — same RNG stream, counters
//     and scenario name — so existing determinism tests, nightly
//     tolerance bands and checkpoints are untouched.
//   - "scrub": a column becomes located when a scrub pass observes its
//     symbol deviate from the corrected codeword (the controller's
//     persistence check, abstracted to one observation). Until then
//     the dead column consumes error capability and can contribute to
//     miscorrections — which the scrub rewrite then entrenches.
//   - "latency": a column becomes located a fixed DetectionLatency
//     hours after striking, mirroring memsim.Config.DetectionLatency
//     (the self-checking-hardware model of paper Section 2).
//
// Non-immediate policies additionally report located_columns,
// stuck_unlocated_reads and a time_to_location sample series; the
// immediate policy reports the historical counter set only, keeping
// its campaign artifacts byte-identical.
//
// The simulator empirically validates interleave.Page.CorrectableBurst:
// a trial whose only fault is one MBU burst within the guarantee
// (length <= (depth*t-1)*m+1 stored bits, which can touch at most
// depth*t symbols) must never lose the page, so campaigns report
// single-burst trials and losses as separate counters that tests and
// spec tolerance bands pin to zero. Under the fixed distribution the
// counters keep their historical meaning (every single-burst trial,
// whatever BurstBits is); under a variable-length distribution only
// within-guarantee bursts are counted, since they are the subset the
// invariant speaks about.
//
// Campaigns run on the internal/campaign engine with per-trial keyed
// random streams (campaign.TrialRNG), so the aggregate statistics are bit-identical for any
// worker count and inherit checkpointing and early stopping. All
// rates are per hour, matching internal/memsim. As with mbusim, the
// fixed distribution samples its length without consuming randomness,
// so fixed-burst campaigns reproduce the exact pre-distribution RNG
// stream and none of the committed tolerance bands move; geometric
// campaigns draw one extra uniform per event (a new stream by
// construction).
package pagesim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/burstlen"
	"repro/internal/campaign"
	"repro/internal/gf"
	"repro/internal/interleave"
	"repro/internal/rs"
	"repro/internal/scrub"
)

// Config parameterizes a page campaign.
type Config struct {
	// N, K, M describe the per-stripe RS(n,k) code over GF(2^m).
	N, K, M int
	// Depth is the interleaving depth (codewords per page), >= 1.
	Depth int

	// LambdaBit is the SEU rate per stored bit per hour.
	LambdaBit float64
	// BurstPerKilobit is the MBU burst event rate per 1000 stored bits
	// per hour; each event flips a run of adjacent stored bits whose
	// length the burst distribution draws.
	BurstPerKilobit float64
	// BurstBits is the length of each MBU burst in stored bits under
	// the default fixed distribution; required when BurstPerKilobit >
	// 0 and BurstDist is "" or "fixed".
	BurstBits int
	// BurstDist selects the burst-length distribution: "" or "fixed"
	// (every burst is BurstBits long) or "geometric" (lengths drawn
	// with mean BurstMeanBits, capped at the stored page size).
	BurstDist string
	// BurstMeanBits is the geometric mean burst length (>= 1).
	BurstMeanBits float64
	// LambdaColumn is the stuck-at column rate per stored symbol per
	// hour: a struck symbol is permanently forced to a random value.
	// When (and whether) the controller locates it — turning the error
	// into an erasure for every later decode — is the Detection
	// policy's decision.
	LambdaColumn float64

	// Detection selects the stuck-column location policy: "" or
	// DetectImmediate (located at the strike instant, the historical
	// behavior), DetectScrub (located when a scrub pass observes the
	// symbol deviate from the corrected codeword; never located
	// without scrubbing), or DetectLatency (located DetectionLatency
	// hours after striking).
	Detection string
	// DetectionLatency is the strike-to-location delay in hours under
	// DetectLatency, mirroring memsim.Config.DetectionLatency. The
	// other policies ignore it (so a matrix sweep can share one value
	// across detection cells); zero under DetectLatency locates at the
	// next decode, reproducing immediate outcomes.
	DetectionLatency float64

	// ScrubPeriod is the hours between scrub passes (0 disables);
	// ExponentialScrub draws exponential intervals with that mean
	// instead of the deterministic controller schedule.
	ScrubPeriod      float64
	ExponentialScrub bool

	// TiltFactor biases the fault arrival process for importance
	// sampling, exactly as memsim.Config.TiltFactor: all fault rates
	// (SEU, burst and stuck-column) are jointly multiplied by the
	// factor — only the arrival clock changes, never the event-type
	// split — and each trial's page classification carries the
	// exponential-tilt likelihood ratio θ^-k·exp((θ-1)·R0·H) into the
	// engine's weighted counters. 0 or 1 disables tilting with a
	// bit-identical trial stream; values > 1 enable it.
	TiltFactor float64

	Horizon float64 // storage time in hours; the page is read once at the end
	Trials  int
	Seed    int64
	Workers int // 0 = GOMAXPROCS
}

// weighted reports whether trials carry importance-sampling weights.
func (c Config) weighted() bool { return c.TiltFactor > 1 }

// Detection policy names accepted by Config.Detection.
const (
	DetectImmediate = "immediate"
	DetectScrub     = "scrub"
	DetectLatency   = "latency"
)

// detectPolicy is the parsed form of Config.Detection.
type detectPolicy int

const (
	detImmediate detectPolicy = iota
	detScrub
	detLatency
)

// policy parses Config.Detection ("" selects immediate, the
// historical behavior).
func (c Config) policy() (detectPolicy, error) {
	switch c.Detection {
	case "", DetectImmediate:
		return detImmediate, nil
	case DetectScrub:
		return detScrub, nil
	case DetectLatency:
		return detLatency, nil
	}
	return 0, fmt.Errorf("pagesim: unknown detection policy %q (want %q, %q or %q)",
		c.Detection, DetectImmediate, DetectScrub, DetectLatency)
}

// Validate checks the configuration (code shape is validated when the
// page is built).
func (c Config) Validate() error {
	finite := func(v float64) bool { return v >= 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }
	switch {
	case c.Depth <= 0:
		return fmt.Errorf("pagesim: nonpositive interleaving depth %d", c.Depth)
	case !finite(c.LambdaBit) || !finite(c.BurstPerKilobit) || !finite(c.LambdaColumn):
		// A non-finite rate would make the event loop's tEvent stall at
		// t (Inf rate) or every comparison false (NaN), spinning the
		// trial forever — the same hang class as Periodic.Next(+Inf).
		return fmt.Errorf("pagesim: fault rates must be finite and nonnegative")
	case !finite(c.ScrubPeriod):
		return fmt.Errorf("pagesim: invalid scrub period %v", c.ScrubPeriod)
	case c.Horizon <= 0 || math.IsNaN(c.Horizon) || math.IsInf(c.Horizon, 0):
		return fmt.Errorf("pagesim: invalid horizon %v", c.Horizon)
	case c.Trials <= 0:
		return fmt.Errorf("pagesim: need at least one trial")
	case c.DetectionLatency < 0 || math.IsNaN(c.DetectionLatency) || math.IsInf(c.DetectionLatency, 1):
		// +Inf would be a legal "never located", but DetectScrub with
		// no scrubbing already expresses that; rejecting non-finite
		// keeps the location instants finite arithmetic.
		return fmt.Errorf("pagesim: invalid detection latency %v", c.DetectionLatency)
	case math.IsNaN(c.TiltFactor) || math.IsInf(c.TiltFactor, 0) || c.TiltFactor < 0:
		return fmt.Errorf("pagesim: invalid tilt factor %v", c.TiltFactor)
	case c.TiltFactor != 0 && c.TiltFactor < 1:
		return fmt.Errorf("pagesim: tilt factor %v must be >= 1 (or 0/1 to disable)", c.TiltFactor)
	}
	if _, err := c.policy(); err != nil {
		return err
	}
	if c.BurstPerKilobit > 0 {
		if err := c.dist().Validate(); err != nil {
			return fmt.Errorf("pagesim: burst rate %g: %w", c.BurstPerKilobit, err)
		}
	}
	return nil
}

// dist assembles the burst-length distribution the config selects.
func (c Config) dist() burstlen.Dist {
	return burstlen.Dist{Kind: c.BurstDist, Bits: c.BurstBits, MeanBits: c.BurstMeanBits}
}

// Counter keys reported into the campaign engine. PageLoss and
// PageCorrect are per-trial (binomial); the rest are totals.
const (
	// CounterPageCorrect / CounterPageLoss classify each trial's final
	// read: the page is lost when any stripe fails to decode or the
	// returned data differs from the stored truth.
	CounterPageCorrect = "page_correct"
	CounterPageLoss    = "page_loss"
	// CounterSilentLoss is the subset of page_loss in which every
	// stripe decoded but the data was wrong (mis-correction).
	CounterSilentLoss = "page_silent_loss"

	// CounterCorrectedSymbols / CounterFailedStripes total the final
	// read's symbol corrections and failed stripes across trials.
	CounterCorrectedSymbols = "corrected_symbols"
	CounterFailedStripes    = "failed_stripes"

	// Fault and operation totals.
	CounterSEUs         = "seus"
	CounterBursts       = "bursts"
	CounterStuckColumns = "stuck_columns"
	CounterScrubOps     = "scrub_ops"

	// CounterSingleBurstTrials / CounterSingleBurstLosses isolate the
	// trials whose entire fault history is exactly one MBU burst; with
	// the burst within the CorrectableBurst guarantee the loss counter
	// must stay zero, which is the empirical validation campaigns and
	// tolerance bands pin. Under the fixed distribution every
	// single-burst trial counts (the historical meaning, including
	// deliberately out-of-guarantee BurstBits); under a variable
	// distribution only within-guarantee bursts count, since they are
	// the subset the guarantee speaks about.
	CounterSingleBurstTrials = "single_burst_trials"
	CounterSingleBurstLosses = "single_burst_losses"

	// Location counters, reported only under a non-immediate detection
	// policy (the immediate policy keeps the historical counter set so
	// its campaign artifacts stay byte-identical).
	// CounterLocatedColumns totals the stuck columns the controller
	// located before the mission ended; CounterStuckUnlocatedReads
	// totals the decodes (scrub passes and final reads) that ran while
	// at least one stuck column was still unlocated — every one of
	// them paid error-decoding rates for a fault erasure decoding
	// would have absorbed.
	CounterLocatedColumns      = "located_columns"
	CounterStuckUnlocatedReads = "stuck_unlocated_reads"

	// CounterScrubDecodeErrors counts scrub passes abandoned because
	// the page decode failed structurally.
	// Such failures are impossible for a validated configuration, so
	// the counter is normally absent; a nonzero value is surfaced by
	// cmd/campaign instead of being silently swallowed (the abandoned
	// pass is excluded from scrub_ops).
	CounterScrubDecodeErrors = "scrub_decode_errors"
)

// SeriesTimeToLocation labels the per-column location samples emitted
// under non-immediate detection policies: x is the strike instant in
// hours, y the hours the column stayed unlocated.
const SeriesTimeToLocation = "time_to_location"

// Result aggregates a campaign.
type Result struct {
	Config Config
	Trials int

	PageCorrect int
	PageLoss    int
	SilentLoss  int

	CorrectedSymbols int64
	FailedStripes    int64

	SEUs         int64
	Bursts       int64
	StuckColumns int64
	ScrubOps     int64

	SingleBurstTrials int64
	SingleBurstLosses int64

	// Location statistics (zero under the immediate policy, where
	// every stuck column is located at its strike instant).
	LocatedColumns      int64
	StuckUnlocatedReads int64
	ScrubDecodeErrors   int64
}

// LossFraction is the observed page-loss probability.
func (r *Result) LossFraction() float64 {
	return float64(r.PageLoss) / float64(r.Trials)
}

// scenario adapts a validated Config to the campaign engine.
type scenario struct {
	cfg    Config
	dist   burstlen.Dist
	policy detectPolicy
	page   *interleave.Page
}

// NewPage builds the interleaved page layout the configuration
// describes (defaults: the paper's RS(18,16) over GF(2^8)).
func (c Config) NewPage() (*interleave.Page, error) {
	n, k, m := c.N, c.K, c.M
	if n == 0 {
		n = 18
	}
	if k == 0 {
		k = 16
	}
	if m == 0 {
		m = 8
	}
	field, err := gf.NewField(m)
	if err != nil {
		return nil, err
	}
	code, err := rs.New(field, n, k)
	if err != nil {
		return nil, err
	}
	return interleave.New(code, c.Depth)
}

// Scenario adapts the configuration to the campaign engine's
// Scenario interface (validating it first).
func Scenario(cfg Config) (campaign.Scenario, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	page, err := cfg.NewPage()
	if err != nil {
		return nil, fmt.Errorf("pagesim: %w", err)
	}
	dist := cfg.dist()
	storedBits := page.StoredSymbols() * page.Code().Field().M()
	if cfg.BurstPerKilobit > 0 && dist.IsFixed() && cfg.BurstBits > storedBits {
		// A fixed burst longer than the page has no untruncated
		// placement; geometric lengths are capped at the page by
		// construction.
		return nil, fmt.Errorf("pagesim: burst of %d bits exceeds the %d-bit stored page", cfg.BurstBits, storedBits)
	}
	policy, err := cfg.policy()
	if err != nil {
		return nil, err
	}
	return &scenario{cfg: cfg, dist: dist, policy: policy, page: page}, nil
}

// Name encodes the full configuration so checkpoints from a different
// campaign are rejected rather than silently merged. Fixed-length
// bursts keep the historical "bb=<bits>" form, and the immediate
// detection policy omits its suffix entirely, so pre-existing
// checkpoints stay resumable.
func (s *scenario) Name() string {
	c := s.cfg
	code := s.page.Code()
	name := fmt.Sprintf("pagesim:RS(%d,%d)/m=%d:depth=%d:lb=%g:bpk=%g:bb=%s:lc=%g:scrub=%g:exp=%t:h=%g:seed=%d",
		code.N(), code.K(), code.Field().M(), s.page.Depth(),
		c.LambdaBit, c.BurstPerKilobit, s.dist, c.LambdaColumn,
		c.ScrubPeriod, c.ExponentialScrub, c.Horizon, c.Seed)
	switch s.policy {
	case detScrub:
		name += ":det=scrub"
	case detLatency:
		name += fmt.Sprintf(":det=latency/%g", c.DetectionLatency)
	}
	if c.weighted() {
		// Tilted and untilted artifacts must never merge: their trial
		// streams sample different measures.
		name += fmt.Sprintf(":tilt=%g", c.TiltFactor)
	}
	return name
}

// Trials implements campaign.Scenario.
func (s *scenario) Trials() int { return s.cfg.Trials }

// Weighted implements campaign.WeightedScenario: a tilted campaign
// records per-trial likelihood ratios and its artifacts carry weight
// moments.
func (s *scenario) Weighted() bool { return s.cfg.weighted() }

// NewWorker implements campaign.Scenario.
func (s *scenario) NewWorker() (campaign.Worker, error) {
	return newWorker(s.cfg, s.dist, s.policy, s.page), nil
}

// worker owns the per-goroutine scratch of a page campaign. The page
// lives in stripe-major form: arena word s (offset s*n) is stripe s,
// and interleave.Page.Locate maps each stored index to its slot when a
// fault strikes. Every decode is one rs.BatchDecoder.DecodeAll over the
// arena, in place, so healthy stripes cost only the syndrome screen
// and a scrub writes back by not copying. The worker also holds the
// RNG (keyed per trial), the truth arena, the per-column fault state
// and the per-stripe erasure lists, so the steady state performs no
// per-trial heap allocation.
type worker struct {
	cfg    Config
	dist   burstlen.Dist
	policy detectPolicy
	// guaranteeBits is the longest bit burst CorrectableBurst
	// guarantees against: (depth*t-1)*m+1 stored bits touch at most
	// depth*t symbols.
	guaranteeBits int
	page          *interleave.Page
	n, m          int
	bdec          *rs.BatchDecoder
	rng           *campaign.TrialRNG
	sched         scrub.Scheduler

	truth []gf.Elem // encoded page as written, stripe-major
	arena []gf.Elem // current page, stripe-major, decoded in place

	// Per-column state, indexed by stored index. cols lists the stuck
	// columns in ascending stored-index order; stuckVal is the value a
	// stuck column drives.
	cols     []int
	stuck    []bool    // whole-symbol stuck-at flags (physical)
	located  []bool    // stuck columns known to the controller
	strikeT  []float64 // strike instant per stuck column (hours)
	stuckVal []gf.Elem
	// ers holds each stripe's located positions, handed to every decode
	// of the trial. The lists are rebuilt in place (in stored-index
	// order) only when a location event dirties them, so between strikes
	// each scrub pass passes the same lists and the rs erasure-set cache
	// resolves them without rebuilding locator state.
	ers      [][]int
	ersDirty bool // ers no longer reflects located

	// Per-trial location bookkeeping (reset by Trial).
	unlocated    int // stuck columns the controller has not located yet
	trialLocated int // columns located during this trial
	unlocReads   int // decodes that saw >= 1 unlocated stuck column
}

func newWorker(cfg Config, dist burstlen.Dist, policy detectPolicy, page *interleave.Page) *worker {
	code := page.Code()
	stored := page.StoredSymbols()
	w := &worker{
		cfg:           cfg,
		dist:          dist,
		policy:        policy,
		guaranteeBits: (page.CorrectableBurst()-1)*code.Field().M() + 1,
		page:          page,
		n:             code.N(),
		m:             code.Field().M(),
		bdec:          code.NewBatchDecoder(),
		rng:           campaign.NewTrialRNG(),
		truth:         make([]gf.Elem, stored),
		arena:         make([]gf.Elem, stored),
		cols:          make([]int, 0, stored),
		stuck:         make([]bool, stored),
		located:       make([]bool, stored),
		strikeT:       make([]float64, stored),
		stuckVal:      make([]gf.Elem, stored),
		ers:           make([][]int, page.Depth()),
	}
	for s := range w.ers {
		w.ers[s] = make([]int, 0, w.n)
	}
	w.sched = scrub.Never{}
	if cfg.ScrubPeriod > 0 {
		if cfg.ExponentialScrub {
			w.sched = &scrub.Exponential{Period: cfg.ScrubPeriod, Rng: w.rng.Rand}
		} else {
			w.sched = scrub.Periodic{Period: cfg.ScrubPeriod}
		}
	}
	return w
}

// slot returns the arena index of stored index i.
func (w *worker) slot(i int) int {
	s, j := w.page.Locate(i)
	return s*w.n + j
}

// Trial implements campaign.Worker: one stored page from write to
// final read, reproducible from the trial index alone.
func (w *worker) Trial(trial int, acc *campaign.Acc) error {
	cfg := w.cfg
	w.rng.Key(cfg.Seed, trial)
	rng := w.rng.Rand
	page := w.page
	code := page.Code()
	storedSymbols := page.StoredSymbols()
	storedBits := storedSymbols * w.m

	// The payload is drawn in page order; payload index i is stored
	// index i of a systematic page.
	for i := 0; i < page.DataSymbols(); i++ {
		w.truth[w.slot(i)] = gf.Elem(rng.Intn(code.Field().Size()))
	}
	for s := 0; s < page.Depth(); s++ {
		word := w.truth[s*w.n : (s+1)*w.n]
		if err := code.EncodeTo(word, word[:code.K()]); err != nil {
			return fmt.Errorf("pagesim: encode: %w", err)
		}
	}
	copy(w.arena, w.truth)
	for _, c := range w.cols {
		w.stuck[c] = false
		w.located[c] = false
	}
	w.cols = w.cols[:0]
	for s := range w.ers {
		w.ers[s] = w.ers[s][:0]
	}
	w.ersDirty = false
	w.unlocated, w.trialLocated, w.unlocReads = 0, 0, 0

	// Per-page event rates (per hour). Importance sampling tilts only
	// the arrival clock — all rates jointly — so the event-type split
	// below keeps its untilted distribution; the likelihood ratio of
	// the realized arrival count corrects the estimator.
	seuRate := cfg.LambdaBit * float64(storedBits)
	burstRate := cfg.BurstPerKilobit * float64(storedBits) / 1000
	colRate := cfg.LambdaColumn * float64(storedSymbols)
	totalRate := seuRate + burstRate + colRate
	tilt := cfg.TiltFactor
	if tilt == 0 {
		tilt = 1
	}

	seus, bursts, cols := 0, 0, 0
	lastBurstLen := 0
	t := 0.0
	nextScrub := w.sched.Next(0)
	for {
		tEvent := math.Inf(1)
		if totalRate > 0 {
			tEvent = t + rng.ExpFloat64()/(totalRate*tilt)
		}
		if nextScrub < tEvent && nextScrub < cfg.Horizon {
			t = nextScrub
			w.doScrub(t, trial, acc)
			nextScrub = w.sched.Next(t)
			continue
		}
		if tEvent >= cfg.Horizon {
			break
		}
		t = tEvent
		switch u := rng.Float64() * totalRate; {
		case u < seuRate:
			w.flipBit(rng.Intn(storedBits))
			seus++
		case u < seuRate+burstRate:
			// Each event samples its length from the configured
			// distribution (capped at the page), then a start uniform
			// over the placements at which the full burst fits, so
			// every event flips exactly its sampled length (the mbusim
			// convention; no edge truncation bias).
			length := w.dist.Sample(rng, storedBits)
			start := rng.Intn(storedBits - length + 1)
			for b := 0; b < length; b++ {
				w.flipBit(start + b)
			}
			lastBurstLen = length
			bursts++
		default:
			s := rng.Intn(storedSymbols)
			// The stuck value is drawn even on a re-strike of an
			// already-dead column, preserving the historical RNG stream.
			v := gf.Elem(rng.Intn(code.Field().Size()))
			if !w.stuck[s] {
				w.stuck[s] = true
				w.strikeT[s] = t
				i, _ := slices.BinarySearch(w.cols, s)
				w.cols = slices.Insert(w.cols, i, s)
				if w.policy == detImmediate {
					w.located[s] = true
					w.ersDirty = true
				} else {
					w.unlocated++
				}
			}
			w.stuckVal[s] = v
			w.arena[w.slot(s)] = v
			cols++
		}
	}

	acc.Add(CounterSEUs, int64(seus))
	acc.Add(CounterBursts, int64(bursts))
	acc.Add(CounterStuckColumns, int64(cols))

	// Per-trial likelihood ratio of the tilted arrival process: the
	// clock redraws at scrub instants telescope, so only the arrival
	// count (every event type) and total exposure enter the density
	// ratio. classify records outcome counters weighted by it.
	weighted := cfg.weighted()
	lr := 1.0
	if weighted {
		lr = math.Exp((tilt-1)*totalRate*cfg.Horizon - float64(seus+bursts+cols)*math.Log(tilt))
	}
	classify := func(counter string) {
		if weighted {
			acc.AddWeighted(counter, lr)
		} else {
			acc.Add(counter, 1)
		}
	}

	// Final read at the horizon.
	if w.policy == detLatency {
		w.locateByLatency(cfg.Horizon, trial, acc)
	}
	w.noteUnlocatedRead()
	res, err := w.decode()
	if err != nil {
		return err
	}
	corrected := 0
	for _, r := range res.Words {
		corrected += r.Corrections
	}
	acc.Add(CounterCorrectedSymbols, int64(corrected))
	acc.Add(CounterFailedStripes, int64(res.Failed))
	// Every stripe that decoded is a codeword, so it matches the truth
	// exactly when its payload does.
	lost := res.Failed > 0
	silent := !lost && !slices.Equal(w.arena, w.truth)
	lost = lost || silent
	// Under a variable-length distribution, only within-guarantee
	// bursts feed the single-burst counters (see the counter docs);
	// the fixed distribution keeps the historical any-length meaning.
	singleBurst := bursts == 1 && seus == 0 && cols == 0 &&
		(w.dist.IsFixed() || lastBurstLen <= w.guaranteeBits)
	if singleBurst {
		acc.Add(CounterSingleBurstTrials, 1)
	}
	switch {
	case lost:
		classify(CounterPageLoss)
		if silent {
			classify(CounterSilentLoss)
		}
		if singleBurst {
			acc.Add(CounterSingleBurstLosses, 1)
		}
	default:
		classify(CounterPageCorrect)
	}
	if w.policy != detImmediate {
		// Reported unconditionally (including zeros) so every
		// non-immediate campaign carries the keys; the immediate policy
		// omits them to keep its artifacts byte-identical to earlier
		// releases.
		acc.Add(CounterLocatedColumns, int64(w.trialLocated))
		acc.Add(CounterStuckUnlocatedReads, int64(w.unlocReads))
	}
	return nil
}

// locate marks stuck column s as known to the controller after it
// spent delay hours unlocated, and records the (strike, delay)
// time-to-location sample. Taking the delay (not the location
// instant) lets the latency policy report its exact configured value
// instead of a strike+L-strike float roundoff.
func (w *worker) locate(s int, delay float64, trial int, acc *campaign.Acc) {
	w.located[s] = true
	w.ersDirty = true
	w.unlocated--
	w.trialLocated++
	acc.Sample(trial, SeriesTimeToLocation, w.strikeT[s], delay)
}

// locateByLatency promotes every stuck column whose fixed detection
// latency has elapsed by time t (DetectLatency policy). Location only
// matters at decode instants, so promotion runs lazily before each
// decode instead of as explicit events in the fault loop.
func (w *worker) locateByLatency(t float64, trial int, acc *campaign.Acc) {
	if w.unlocated == 0 {
		return
	}
	for _, s := range w.cols {
		if !w.located[s] && w.strikeT[s]+w.cfg.DetectionLatency <= t {
			w.locate(s, w.cfg.DetectionLatency, trial, acc)
		}
	}
}

// noteUnlocatedRead counts a decode that ran while at least one stuck
// column was unlocated (and therefore consumed error capability).
func (w *worker) noteUnlocatedRead() {
	if w.policy != detImmediate && w.unlocated > 0 {
		w.unlocReads++
	}
}

// flipBit applies an SEU to one stored bit; stuck symbols do not
// respond (the column drives the line).
func (w *worker) flipBit(bit int) {
	s := bit / w.m
	if w.stuck[s] {
		return
	}
	w.arena[w.slot(s)] ^= 1 << uint(bit%w.m)
}

// decode corrects the arena in place with the located stuck columns as
// erasures: a decoded stripe becomes its corrected codeword and a
// failed one stays as read. Stuck columns the controller has not
// located yet are plain errors: they consume twice the correction
// budget and can miscorrect, which is exactly the located/unlocated
// asymmetry the detection policies model. The erasure lists are
// rebuilt only when a location event has dirtied them.
func (w *worker) decode() (*rs.BatchResult, error) {
	if w.ersDirty {
		for s := range w.ers {
			w.ers[s] = w.ers[s][:0]
		}
		for _, c := range w.cols {
			if w.located[c] {
				s, j := w.page.Locate(c)
				w.ers[s] = append(w.ers[s], j)
			}
		}
		w.ersDirty = false
	}
	res, err := w.bdec.DecodeAll(rs.Batch{Words: w.arena, Stride: w.n, Count: w.page.Depth()}, w.ers)
	if err != nil {
		return nil, fmt.Errorf("pagesim: decode: %w", err)
	}
	return res, nil
}

// doScrub decodes the page at time t in place, which is the rewrite:
// decoded stripes now hold their corrected codewords (for a systematic
// code, the re-encoded data) and failed stripes are left untouched, as
// a controller with nothing better to write back would. Stuck columns
// then reassert themselves. Under the scrub detection policy, an
// unlocated stuck column whose symbol the decode corrected has been
// observed deviating and becomes located for every later decode; a
// failed stripe changed nothing, so it locates nothing.
func (w *worker) doScrub(t float64, trial int, acc *campaign.Acc) {
	if w.policy == detLatency {
		w.locateByLatency(t, trial, acc)
	}
	w.noteUnlocatedRead()
	if _, err := w.decode(); err != nil {
		// Structural decode failures are impossible for a validated
		// config; count them (the pass did not complete, so it is not a
		// scrub_op) instead of silently swallowing the error — a
		// nonzero counter is surfaced by cmd/campaign.
		acc.Add(CounterScrubDecodeErrors, 1)
		return
	}
	acc.Add(CounterScrubOps, 1)
	// Ascending stored-index order keeps the time_to_location samples
	// that locate appends in a fixed order.
	for _, c := range w.cols {
		slot := w.slot(c)
		if w.policy == detScrub && !w.located[c] && w.arena[slot] != w.stuckVal[c] {
			w.locate(c, t-w.strikeT[c], trial, acc)
		}
		w.arena[slot] = w.stuckVal[c]
	}
}

// ResultFromCampaign reassembles the simulator's Result from the
// engine's counter set.
func ResultFromCampaign(cfg Config, cres *campaign.Result) *Result {
	return &Result{
		Config:            cfg,
		Trials:            cres.Trials,
		PageCorrect:       int(cres.Counter(CounterPageCorrect)),
		PageLoss:          int(cres.Counter(CounterPageLoss)),
		SilentLoss:        int(cres.Counter(CounterSilentLoss)),
		CorrectedSymbols:  cres.Counter(CounterCorrectedSymbols),
		FailedStripes:     cres.Counter(CounterFailedStripes),
		SEUs:              cres.Counter(CounterSEUs),
		Bursts:            cres.Counter(CounterBursts),
		StuckColumns:      cres.Counter(CounterStuckColumns),
		ScrubOps:          cres.Counter(CounterScrubOps),
		SingleBurstTrials: cres.Counter(CounterSingleBurstTrials),
		SingleBurstLosses: cres.Counter(CounterSingleBurstLosses),

		LocatedColumns:      cres.Counter(CounterLocatedColumns),
		StuckUnlocatedReads: cres.Counter(CounterStuckUnlocatedReads),
		ScrubDecodeErrors:   cres.Counter(CounterScrubDecodeErrors),
	}
}

// Run executes the campaign on the shared engine. The result is
// deterministic for a fixed Config (including Seed), independent of
// Workers.
func Run(cfg Config) (*Result, error) {
	scn, err := Scenario(cfg)
	if err != nil {
		return nil, err
	}
	cres, err := campaign.Run(scn, campaign.Config{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	return ResultFromCampaign(cfg, cres), nil
}
