package pagesim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
)

func TestValidation(t *testing.T) {
	bad := []Config{
		{Depth: 0, Horizon: 1, Trials: 1},
		{Depth: 2, LambdaBit: -1, Horizon: 1, Trials: 1},
		{Depth: 2, BurstPerKilobit: 1, BurstBits: 0, Horizon: 1, Trials: 1},
		{Depth: 2, LambdaColumn: -1, Horizon: 1, Trials: 1},
		{Depth: 2, ScrubPeriod: -1, Horizon: 1, Trials: 1},
		{Depth: 2, Horizon: 0, Trials: 1},
		{Depth: 2, Horizon: math.Inf(1), Trials: 1},
		{Depth: 2, Horizon: 1, Trials: 0},
		// Non-finite rates would spin the event loop forever (tEvent
		// stalls on an Inf rate; NaN falsifies every comparison).
		{Depth: 2, LambdaBit: math.Inf(1), Horizon: 1, Trials: 1},
		{Depth: 2, LambdaBit: math.NaN(), Horizon: 1, Trials: 1},
		{Depth: 2, BurstPerKilobit: math.Inf(1), BurstBits: 4, Horizon: 1, Trials: 1},
		{Depth: 2, LambdaColumn: math.NaN(), Horizon: 1, Trials: 1},
		{Depth: 2, ScrubPeriod: math.Inf(1), Horizon: 1, Trials: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
	// Structural rejections surface at Scenario build time.
	if _, err := Scenario(Config{Depth: 2, N: 3, K: 5, Horizon: 1, Trials: 1}); err == nil {
		t.Error("invalid code accepted")
	}
	if _, err := Scenario(Config{Depth: 2, BurstPerKilobit: 1, BurstBits: 10000, Horizon: 1, Trials: 1}); err == nil {
		t.Error("burst longer than the stored page accepted")
	}
}

func TestNoFaultsNoLoss(t *testing.T) {
	res, err := Run(Config{Depth: 2, Horizon: 48, Trials: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.PageLoss != 0 || res.PageCorrect != 50 {
		t.Errorf("fault-free campaign lost pages: %+v", res)
	}
	if res.SEUs != 0 || res.Bursts != 0 || res.StuckColumns != 0 {
		t.Errorf("fault-free campaign injected faults: %+v", res)
	}
}

// TestCorrectableBurstEmpirical validates interleave.CorrectableBurst
// through the Monte Carlo: with depth 2 and RS(18,16) (t=1) the
// guarantee is 2 stored symbols, i.e. any bit burst of at most
// (2-1)*8+1 = 9 bits touches at most 2 symbols and always corrects —
// so trials whose entire fault history is one such burst must never
// lose the page. A 17-bit burst always spans at least 3 symbols,
// overloading one stripe, so every single-burst trial must lose.
func TestCorrectableBurstEmpirical(t *testing.T) {
	base := Config{
		Depth:           2,
		BurstPerKilobit: 3, // mean ~0.86 events over the horizon
		Horizon:         1,
		Trials:          2000,
		Seed:            3,
	}

	within := base
	within.BurstBits = 9
	res, err := Run(within)
	if err != nil {
		t.Fatal(err)
	}
	if res.SingleBurstTrials < 200 {
		t.Fatalf("only %d single-burst trials; statistics too weak", res.SingleBurstTrials)
	}
	if res.SingleBurstLosses != 0 {
		t.Errorf("%d of %d single bursts within the guarantee lost the page",
			res.SingleBurstLosses, res.SingleBurstTrials)
	}

	beyond := base
	beyond.BurstBits = 17
	res, err = Run(beyond)
	if err != nil {
		t.Fatal(err)
	}
	if res.SingleBurstTrials < 200 {
		t.Fatalf("only %d single-burst trials; statistics too weak", res.SingleBurstTrials)
	}
	if res.SingleBurstLosses != res.SingleBurstTrials {
		t.Errorf("a 17-bit burst must overload a depth-2 t=1 page: %d losses of %d single bursts",
			res.SingleBurstLosses, res.SingleBurstTrials)
	}
}

// TestGeometricBurstLengths: the geometric length distribution must
// validate, run deterministically, and keep the guarantee invariant —
// single bursts within CorrectableBurst never lose the page — even
// though the tail of the distribution produces bursts far beyond the
// guarantee (which are excluded from the single-burst counters and
// free to lose pages).
func TestGeometricBurstLengths(t *testing.T) {
	cfg := Config{
		Depth:           2,
		BurstPerKilobit: 3,
		BurstDist:       "geometric",
		BurstMeanBits:   8, // guarantee for depth 2, t=1 is 9 bits; the tail goes far beyond
		Horizon:         1,
		Trials:          3000,
		Seed:            9,
	}
	scn, err := Scenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var results []*campaign.Result
	for _, workers := range []int{1, 4} {
		cres, err := campaign.Run(scn, campaign.Config{Workers: workers, ShardSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, cres)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("geometric burst campaign not worker-count deterministic")
	}
	res := ResultFromCampaign(cfg, results[0])
	if res.Bursts == 0 {
		t.Fatal("no bursts injected")
	}
	if res.SingleBurstTrials < 200 {
		t.Fatalf("only %d within-guarantee single-burst trials; statistics too weak", res.SingleBurstTrials)
	}
	if res.SingleBurstLosses != 0 {
		t.Errorf("%d of %d within-guarantee single bursts lost the page",
			res.SingleBurstLosses, res.SingleBurstTrials)
	}
	if res.PageLoss == 0 {
		t.Error("the geometric tail (bursts beyond the guarantee) should lose some pages")
	}

	// The scenario name must distinguish the distribution so
	// checkpoints cannot cross modes.
	if fixedName := mustScenario(t, Config{Depth: 2, BurstPerKilobit: 3, BurstBits: 8,
		Horizon: 1, Trials: 10, Seed: 9}).Name(); fixedName == scn.Name() {
		t.Error("geometric and fixed campaigns share a scenario name")
	}

	bad := cfg
	bad.BurstMeanBits = 0.5
	if err := bad.Validate(); err == nil {
		t.Error("sub-1 geometric mean accepted")
	}
	bad = cfg
	bad.BurstDist = "uniform"
	if err := bad.Validate(); err == nil {
		t.Error("unknown burst distribution accepted")
	}
}

func mustScenario(t *testing.T, cfg Config) campaign.Scenario {
	t.Helper()
	scn, err := Scenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// TestDeeperInterleavingAbsorbsBursts: under a burst environment rare
// enough that single events dominate, deepening the interleave at the
// same code must cut the page-loss fraction — the trade-off the
// matrix sweeps measure. A 24-bit burst spans 3-4 stored symbols:
// beyond t=2 for a depth-1 RS(20,16) page (every burst kills it), but
// at most one symbol per stripe at depth 4 (only >= 3 coinciding
// bursts can overload a stripe), even though the deeper page honestly
// pays ~4x the event exposure for its footprint.
func TestDeeperInterleavingAbsorbsBursts(t *testing.T) {
	loss := func(depth int) float64 {
		res, err := Run(Config{
			N: 20, K: 16,
			Depth:           depth,
			BurstPerKilobit: 0.25,
			BurstBits:       24,
			Horizon:         4,
			Trials:          3000,
			Seed:            5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Bursts == 0 {
			t.Fatal("no bursts injected")
		}
		return res.LossFraction()
	}
	shallow, deep := loss(1), loss(4)
	if shallow == 0 {
		t.Fatal("depth-1 page never lost; burst environment too mild")
	}
	if !(deep < shallow/2) {
		t.Errorf("depth 4 loss %v not well below depth 1 loss %v", deep, shallow)
	}
}

// TestScrubbingHelps: periodic scrubbing must cut the loss fraction
// under an SEU-accumulation environment (the paper's Section 2
// mechanism at page level).
func TestScrubbingHelps(t *testing.T) {
	run := func(scrub float64) *Result {
		res, err := Run(Config{
			Depth:       2,
			LambdaBit:   2e-4,
			ScrubPeriod: scrub,
			Horizon:     48,
			Trials:      1500,
			Seed:        6,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unscrubbed, scrubbed := run(0), run(4)
	if scrubbed.ScrubOps == 0 {
		t.Fatal("no scrubs performed")
	}
	if unscrubbed.ScrubOps != 0 {
		t.Fatal("scrub-free campaign scrubbed")
	}
	if !(scrubbed.LossFraction() < unscrubbed.LossFraction()/2) {
		t.Errorf("scrubbing did not help: %v vs %v", scrubbed.LossFraction(), unscrubbed.LossFraction())
	}
}

// TestStuckColumnsAreErasures: located stuck columns consume erasure
// capability; enough of them must eventually produce losses, and the
// counters must see the faults.
func TestStuckColumnsAreErasures(t *testing.T) {
	res, err := Run(Config{
		Depth:        2,
		LambdaColumn: 5e-3,
		Horizon:      48,
		Trials:       1000,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StuckColumns == 0 {
		t.Fatal("no stuck columns injected")
	}
	if res.PageLoss == 0 {
		t.Error("stuck-column saturation never lost a page")
	}
	// Detected losses only: a stuck column is an erasure, and erasure
	// overflow is a detected failure, so silent losses require random
	// errors to conspire — none are injected here.
	if res.SilentLoss != 0 {
		t.Errorf("%d silent losses under erasure-only faults", res.SilentLoss)
	}
}

// mixedConfig is the determinism/resume workhorse: all three fault
// classes plus periodic scrubbing.
func mixedConfig() Config {
	return Config{
		Depth:           4,
		LambdaBit:       1e-4,
		BurstPerKilobit: 0.05,
		BurstBits:       12,
		LambdaColumn:    2e-4,
		ScrubPeriod:     8,
		Horizon:         48,
		Trials:          800,
		Seed:            42,
	}
}

// TestDeterminismAcrossWorkerCounts: per-trial reseeding makes the
// merged campaign result bit-identical for any worker count.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	scn, err := Scenario(mixedConfig())
	if err != nil {
		t.Fatal(err)
	}
	var results []*campaign.Result
	for _, workers := range []int{1, 4, 8} {
		cres, err := campaign.Run(scn, campaign.Config{Workers: workers, ShardSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, cres)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("worker count changed results:\n%+v\nvs\n%+v", results[0], results[i])
		}
	}
}

// TestResumedCampaignMatchesUninterrupted interrupts a checkpointed
// page campaign partway and verifies the resumed run is bit-identical
// to an uninterrupted one.
func TestResumedCampaignMatchesUninterrupted(t *testing.T) {
	cfg := mixedConfig()
	scn, err := Scenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Run(scn, campaign.Config{Workers: 4, ShardSize: 64})
	if err != nil {
		t.Fatal(err)
	}

	cp := filepath.Join(t.TempDir(), "pagesim.ckpt.json")
	budget := &budgetScenario{Scenario: scn, remaining: 400}
	if _, err := campaign.Run(budget, campaign.Config{Workers: 4, ShardSize: 64, Checkpoint: cp}); err == nil {
		t.Fatal("interrupted campaign reported success")
	}

	cres, err := campaign.Run(scn, campaign.Config{Workers: 4, ShardSize: 64, Checkpoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	if cres.ResumedTrials == 0 {
		t.Fatal("resume recomputed every trial")
	}
	got := *cres
	got.ResumedTrials = 0 // the only field allowed to differ
	if !reflect.DeepEqual(want, &got) {
		t.Errorf("resumed campaign diverged:\nwant %+v\ngot  %+v", want, &got)
	}
}

// budgetScenario wraps a scenario so its workers fail after a shared
// number of trials, simulating an interruption mid-campaign.
type budgetScenario struct {
	campaign.Scenario
	remaining int64
}

func (b *budgetScenario) NewWorker() (campaign.Worker, error) {
	w, err := b.Scenario.NewWorker()
	if err != nil {
		return nil, err
	}
	return &budgetWorker{inner: w, budget: &b.remaining}, nil
}

type budgetWorker struct {
	inner  campaign.Worker
	budget *int64
}

func (w *budgetWorker) Trial(trial int, acc *campaign.Acc) error {
	if atomic.AddInt64(w.budget, -1) < 0 {
		return errInterrupted
	}
	return w.inner.Trial(trial, acc)
}

var errInterrupted = errors.New("simulated interruption")

// TestResultRoundTrip: ResultFromCampaign must surface every counter.
func TestResultRoundTrip(t *testing.T) {
	cfg := mixedConfig()
	scn, err := Scenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := campaign.Run(scn, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := ResultFromCampaign(cfg, cres)
	if res.Trials != cfg.Trials {
		t.Errorf("trials %d, want %d", res.Trials, cfg.Trials)
	}
	if res.PageCorrect+res.PageLoss != res.Trials {
		t.Errorf("outcomes %d+%d do not partition %d trials", res.PageCorrect, res.PageLoss, res.Trials)
	}
	if res.PageCorrect == 0 || res.PageLoss == 0 {
		t.Errorf("mixed environment should produce both outcomes: %d correct, %d lost", res.PageCorrect, res.PageLoss)
	}
	if res.SEUs == 0 || res.Bursts == 0 || res.StuckColumns == 0 || res.ScrubOps == 0 {
		t.Errorf("missing fault/op counters: %+v", res)
	}
	if res.SilentLoss > res.PageLoss {
		t.Errorf("silent losses %d exceed losses %d", res.SilentLoss, res.PageLoss)
	}
}

func BenchmarkPageCampaign(b *testing.B) {
	cfg := mixedConfig()
	cfg.Trials = 200
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// goldenCounters pins the exact campaign counters of the pre-detection
// simulator (captured at the commit introducing detection policies,
// re-pinned once when the trial streams moved to campaign.TrialRNG)
// for two fixed-seed configurations. The immediate policy — spelled
// "" or "immediate" — must reproduce them bit for bit: same RNG
// stream, same counter set (no location keys), same scenario name.
func goldenCounters(t *testing.T, cfg Config, wantName string, want map[string]int64) {
	t.Helper()
	for _, detection := range []string{"", DetectImmediate} {
		c := cfg
		c.Detection = detection
		scn := mustScenario(t, c)
		if scn.Name() != wantName {
			t.Fatalf("detection %q renamed the scenario:\ngot  %s\nwant %s", detection, scn.Name(), wantName)
		}
		cres, err := campaign.Run(scn, campaign.Config{Workers: 4, ShardSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cres.Counters, want) {
			t.Errorf("detection %q diverged from the historical outputs:\ngot  %v\nwant %v",
				detection, cres.Counters, want)
		}
		if len(cres.Samples) != 0 {
			t.Errorf("detection %q emitted %d samples; the immediate policy must not", detection, len(cres.Samples))
		}
	}
}

func TestImmediatePolicyMatchesHistoricalOutputs(t *testing.T) {
	goldenCounters(t, mixedConfig(),
		"pagesim:RS(18,16)/m=8:depth=4:lb=0.0001:bpk=0.05:bb=12:lc=0.0002:scrub=8:exp=false:h=48:seed=42",
		map[string]int64{
			"bursts":              1081,
			"corrected_symbols":   753,
			"failed_stripes":      610,
			"page_correct":        346,
			"page_loss":           454,
			"page_silent_loss":    33,
			"scrub_ops":           4000,
			"seus":                2201,
			"single_burst_trials": 4,
			"stuck_columns":       577,
		})
	goldenCounters(t,
		Config{Depth: 2, LambdaColumn: 4e-3, ScrubPeriod: 6, Horizon: 48, Trials: 500, Seed: 7},
		"pagesim:RS(18,16)/m=8:depth=2:lb=0:bpk=0:bb=0:lc=0.004:scrub=6:exp=false:h=48:seed=7",
		map[string]int64{
			"bursts":            0,
			"corrected_symbols": 572,
			"failed_stripes":    612,
			"page_correct":      72,
			"page_loss":         428,
			"scrub_ops":         3500,
			"seus":              0,
			"stuck_columns":     3364,
		})
}

// detectionConfig is the location-model workhorse: a stuck-column
// dominated environment with background SEUs and periodic scrubbing.
func detectionConfig(detection string) Config {
	return Config{
		Depth:            2,
		LambdaBit:        1e-5,
		LambdaColumn:     1.5e-3,
		ScrubPeriod:      6,
		Detection:        detection,
		DetectionLatency: 8,
		Horizon:          48,
		Trials:           1500,
		Seed:             11,
	}
}

// TestDetectionPolicyDeterminism: every policy's merged campaign is
// bit-identical for any worker count.
func TestDetectionPolicyDeterminism(t *testing.T) {
	for _, detection := range []string{DetectImmediate, DetectScrub, DetectLatency} {
		scn := mustScenario(t, detectionConfig(detection))
		var results []*campaign.Result
		for _, workers := range []int{1, 4, 8} {
			cres, err := campaign.Run(scn, campaign.Config{Workers: workers, ShardSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, cres)
		}
		for i := 1; i < len(results); i++ {
			if !reflect.DeepEqual(results[0], results[i]) {
				t.Errorf("detection %q: worker count changed results", detection)
			}
		}
	}
}

// TestDetectionMonotonicity: on a shared seed set, locating stuck
// columns earlier can only help — page loss under immediate location
// must stay below fixed-latency location, which must stay below a
// latency that never elapses (never located). The fault histories are
// identical across policies (location consumes no randomness), so the
// ordering isolates exactly what the free-erasures assumption bought.
func TestDetectionMonotonicity(t *testing.T) {
	loss := func(detection string, latency float64) float64 {
		cfg := detectionConfig(detection)
		cfg.DetectionLatency = latency
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.StuckColumns == 0 {
			t.Fatal("no stuck columns injected")
		}
		return res.LossFraction()
	}
	immediate := loss(DetectImmediate, 0)
	latency := loss(DetectLatency, 8)
	never := loss(DetectLatency, 1e8)
	if !(immediate < latency && latency < never) {
		t.Errorf("page loss not monotone in detection delay: immediate %v, latency %v, never %v",
			immediate, latency, never)
	}
	// A zero latency locates every column before any decode sees it,
	// reproducing the immediate outcomes on the same seeds.
	if zero := loss(DetectLatency, 0); zero != immediate {
		t.Errorf("zero-latency loss %v differs from immediate %v", zero, immediate)
	}
}

// TestScrubDetectionLocates: under the scrub policy, columns become
// located only through scrub observations — never without scrubbing —
// and unlocated columns cost real reliability versus immediate
// location on the same seeds.
func TestScrubDetectionLocates(t *testing.T) {
	cfg := detectionConfig(DetectScrub)
	scn := mustScenario(t, cfg)
	cres, err := campaign.Run(scn, campaign.Config{Workers: 4, ShardSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	res := ResultFromCampaign(cfg, cres)
	if res.LocatedColumns == 0 {
		t.Fatal("scrub observation never located a column")
	}
	if res.LocatedColumns > res.StuckColumns {
		t.Errorf("located %d of %d stuck columns", res.LocatedColumns, res.StuckColumns)
	}
	if res.StuckUnlocatedReads == 0 {
		t.Error("no decode ever saw an unlocated stuck column")
	}
	immediate, err := Run(detectionConfig(DetectImmediate))
	if err != nil {
		t.Fatal(err)
	}
	if !(res.LossFraction() > immediate.LossFraction()) {
		t.Errorf("scrub-located loss %v not above immediate %v: free erasures cost nothing?",
			res.LossFraction(), immediate.LossFraction())
	}

	// Every location observation is a valid (strike, delay) pair.
	xs, ys := cres.SeriesPoints(SeriesTimeToLocation)
	if int64(len(xs)) != res.LocatedColumns {
		t.Fatalf("%d time_to_location samples for %d located columns", len(xs), res.LocatedColumns)
	}
	for i := range xs {
		if xs[i] < 0 || xs[i] > cfg.Horizon || ys[i] < 0 || xs[i]+ys[i] > cfg.Horizon {
			t.Fatalf("sample %d: strike %v + delay %v outside the mission", i, xs[i], ys[i])
		}
	}

	// Without scrubbing there is no observation channel at all.
	unscrubbed := cfg
	unscrubbed.ScrubPeriod = 0
	noScrub, err := Run(unscrubbed)
	if err != nil {
		t.Fatal(err)
	}
	if noScrub.LocatedColumns != 0 {
		t.Errorf("%d columns located without any scrub pass", noScrub.LocatedColumns)
	}
}

// TestLatencyDetectionSamples: under the latency policy every located
// column reports exactly the configured strike-to-location delay.
func TestLatencyDetectionSamples(t *testing.T) {
	cfg := detectionConfig(DetectLatency)
	scn := mustScenario(t, cfg)
	cres, err := campaign.Run(scn, campaign.Config{Workers: 4, ShardSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	res := ResultFromCampaign(cfg, cres)
	if res.LocatedColumns == 0 {
		t.Fatal("latency policy never located a column")
	}
	xs, ys := cres.SeriesPoints(SeriesTimeToLocation)
	if int64(len(xs)) != res.LocatedColumns {
		t.Fatalf("%d time_to_location samples for %d located columns", len(xs), res.LocatedColumns)
	}
	for i := range ys {
		if ys[i] != cfg.DetectionLatency {
			t.Fatalf("sample %d: delay %v, want the fixed latency %v", i, ys[i], cfg.DetectionLatency)
		}
		if xs[i]+cfg.DetectionLatency > cfg.Horizon {
			t.Fatalf("sample %d: column located at %v, after the horizon", i, xs[i]+cfg.DetectionLatency)
		}
	}
}

// TestDetectionValidation: unknown policies and bad latencies are
// rejected up front.
func TestDetectionValidation(t *testing.T) {
	base := Config{Depth: 2, Horizon: 1, Trials: 1}
	bad := base
	bad.Detection = "eventually"
	if err := bad.Validate(); err == nil {
		t.Error("unknown detection policy accepted")
	}
	bad = base
	bad.DetectionLatency = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative detection latency accepted")
	}
	bad = base
	bad.Detection = DetectLatency
	bad.DetectionLatency = math.Inf(1)
	if err := bad.Validate(); err == nil {
		t.Error("infinite detection latency accepted")
	}
	ok := base
	ok.Detection = DetectScrub
	if err := ok.Validate(); err != nil {
		t.Errorf("scrub policy rejected: %v", err)
	}
}

// TestScrubDecodeErrorCounted: a scrub pass whose decode fails
// structurally must count scrub_decode_errors and must not count as a
// completed scrub_op (the historical code swallowed the error after
// counting the op).
func TestScrubDecodeErrorCounted(t *testing.T) {
	scn := mustScenario(t, Config{Depth: 2, ScrubPeriod: 1, Horizon: 2, Trials: 1, Seed: 1})
	cw, err := scn.NewWorker()
	if err != nil {
		t.Fatal(err)
	}
	w := cw.(*worker)
	acc := campaign.NewAcc()
	// Truncating the arena makes the decode fail structurally —
	// the only failure class DecodeAll reports as an error (capability
	// overflow lands in FailedStripes instead).
	w.arena = w.arena[:len(w.arena)-1]
	w.doScrub(1, 0, acc)
	if got := acc.Counter(CounterScrubDecodeErrors); got != 1 {
		t.Errorf("scrub_decode_errors = %d, want 1", got)
	}
	if got := acc.Counter(CounterScrubOps); got != 0 {
		t.Errorf("abandoned scrub pass counted as %d completed scrub_ops", got)
	}
}

// batchGoldenCases are the fixed-seed configurations whose complete
// campaign output — counters and serialized result, including the
// time_to_location sample series — is pinned across the batch-decode
// switch: the batch page path must reproduce the per-word decode
// stream byte for byte (decoding consumes no randomness, so any
// divergence is a decode-semantics change, not noise). The values were
// re-pinned once when the trial streams moved to campaign.TrialRNG.
func batchGoldenCases() []struct {
	name     string
	cfg      Config
	counters map[string]int64
	digest   string
} {
	return []struct {
		name     string
		cfg      Config
		counters map[string]int64
		digest   string
	}{
		{
			name: "mixed/immediate", cfg: mixedConfig(),
			counters: map[string]int64{
				"bursts": 1081, "corrected_symbols": 753, "failed_stripes": 610,
				"page_correct": 346, "page_loss": 454, "page_silent_loss": 33,
				"scrub_ops": 4000, "seus": 2201, "single_burst_trials": 4,
				"stuck_columns": 577,
			},
			digest: "df2bb77c3900b6c49d251d4812a01e8e03df724d50c71beedc7b6dccff08bda4",
		},
		{
			name: "detect/scrub", cfg: detectionConfig(DetectScrub),
			counters: map[string]int64{
				"bursts": 0, "corrected_symbols": 1027, "failed_stripes": 1121,
				"located_columns": 1848, "page_correct": 577, "page_loss": 923,
				"page_silent_loss": 7, "scrub_ops": 10500, "seus": 213,
				"stuck_columns": 3912, "stuck_unlocated_reads": 5320,
			},
			digest: "3d99c60d5106610eeade85f6dba1a7140f4e0d713d05f075e11f1627c6e6a68e",
		},
		{
			name: "detect/latency", cfg: detectionConfig(DetectLatency),
			counters: map[string]int64{
				"bursts": 0, "corrected_symbols": 2231, "failed_stripes": 525,
				"located_columns": 3183, "page_correct": 920, "page_loss": 580,
				"page_silent_loss": 106, "scrub_ops": 10500, "seus": 213,
				"stuck_columns": 3912, "stuck_unlocated_reads": 4025,
			},
			digest: "a679fceb950443f3be7edd7a030acc71f715cee9444c8479fe6b38dd9246f93d",
		},
	}
}

func TestBatchGoldenOutputs(t *testing.T) {
	for _, tc := range batchGoldenCases() {
		scn := mustScenario(t, tc.cfg)
		cres, err := campaign.Run(scn, campaign.Config{Workers: 4, ShardSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(cres)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		got := hex.EncodeToString(sum[:])
		if got != tc.digest || !reflect.DeepEqual(cres.Counters, tc.counters) {
			t.Errorf("%s: golden mismatch\ndigest   %q\ncounters %#v", tc.name, got, cres.Counters)
		}
	}
}

// TestTrialZeroAllocs pins the steady state of the in-place page
// decode: once a worker has run a set of trials, running them again
// (SEUs, bursts, stuck columns located as erasures, scrub rewrites and
// the final read) allocates nothing.
func TestTrialZeroAllocs(t *testing.T) {
	cfg := mixedConfig()
	cfg.LambdaColumn *= 4 // several located columns per page
	scn := mustScenario(t, cfg)
	cw, err := scn.NewWorker()
	if err != nil {
		t.Fatal(err)
	}
	acc := campaign.NewAcc()
	const trials = 64
	allocs := testing.AllocsPerRun(20, func() {
		for trial := 0; trial < trials; trial++ {
			if err := cw.Trial(trial, acc); err != nil {
				t.Fatal(err)
			}
		}
	})
	for _, c := range []string{CounterBursts, CounterStuckColumns, CounterScrubOps, CounterCorrectedSymbols, CounterFailedStripes} {
		if acc.Counter(c) == 0 {
			t.Errorf("%s never exercised", c)
		}
	}
	if allocs != 0 {
		t.Errorf("steady-state trials allocate %.1f times per %d trials", allocs, trials)
	}
}
