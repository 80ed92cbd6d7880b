package spec

import (
	"fmt"
	"math"

	"repro/internal/campaign"
	"repro/internal/duplex"
	"repro/internal/memsim"
	"repro/internal/simplex"
)

// autoTiltMax bounds the factor search: a tilt beyond this cannot
// arise from a sane rare-event configuration and usually means the
// untilted failure probability underflowed the chain solver.
const autoTiltMax = 1e9

// simplexParams maps a memsim configuration onto the analytic chain
// it cross-validates against (the same 1:1 mapping the memsim xval
// tests pin): per-bit SEU rate, per-symbol permanent rate, and the
// exponential scrub rate 1/period. The duplex chain takes the same
// fields.
func simplexParams(cfg memsim.Config) simplex.Params {
	p := simplex.Params{
		N:       cfg.Code.N(),
		K:       cfg.Code.K(),
		M:       cfg.Code.Field().M(),
		Lambda:  cfg.LambdaBit,
		LambdaE: cfg.LambdaSymbol,
	}
	if cfg.ScrubPeriod > 0 {
		p.ScrubRate = 1 / cfg.ScrubPeriod
	}
	return p
}

// chainFail solves the configuration's analytic chain — duplex or
// simplex, at the same per-hour rates — for the Fail probability at
// the horizon under jointly tilted fault rates.
func chainFail(cfg memsim.Config, tilt float64) (float64, error) {
	p := simplexParams(cfg)
	p.Lambda *= tilt
	p.LambdaE *= tilt
	horizon := []float64{cfg.Horizon}
	var probs []float64
	var err error
	if cfg.Duplex {
		probs, err = duplex.FailProbabilities(duplex.Params{
			N: p.N, K: p.K, M: p.M,
			Lambda: p.Lambda, LambdaE: p.LambdaE, ScrubRate: p.ScrubRate,
		}, horizon)
	} else {
		probs, err = simplex.FailProbabilities(p, horizon)
	}
	if err != nil {
		return 0, err
	}
	return probs[0], nil
}

// resolveMemsimTilt turns an entry's sampling block into a concrete
// tilt factor for the memsim configuration. The "auto" method solves
// the factor from the analytic chain — bisecting the jointly tilted
// rates until the chain's Fail probability at the horizon reaches
// autoTiltTarget — and returns a merge-time gate that requires the
// weighted capability-exceeded estimate to agree with the chain's
// untilted answer within four standard errors. Auto needs the regime
// the chain models exactly: simplex, no detection latency, and
// exponential (or no) scrubbing.
func resolveMemsimTilt(e Entry, cfg memsim.Config) (float64, func(*campaign.Result) error, error) {
	s := e.Sampling
	if s.Method == SampleTilt {
		return s.Factor, nil, nil
	}
	switch {
	case cfg.Duplex:
		return 0, nil, fmt.Errorf("spec: scenario %q: auto sampling needs the simplex chain; duplex entries must give an explicit tilt factor", e.Name)
	case cfg.DetectionLatency != 0:
		return 0, nil, fmt.Errorf("spec: scenario %q: auto sampling models immediate fault location; detection_latency_hours must be 0", e.Name)
	case cfg.ScrubPeriod > 0 && !cfg.ExponentialScrub:
		return 0, nil, fmt.Errorf("spec: scenario %q: auto sampling models exponential scrub intervals; set exponential_scrub or drop scrubbing", e.Name)
	}
	p0, err := chainFail(cfg, 1)
	if err != nil {
		return 0, nil, fmt.Errorf("spec: scenario %q: auto sampling: %w", e.Name, err)
	}
	if p0 <= 0 {
		return 0, nil, fmt.Errorf("spec: scenario %q: auto sampling: analytic failure probability underflowed to 0; give an explicit tilt factor", e.Name)
	}
	if p0 >= autoTiltTarget {
		return 0, nil, fmt.Errorf("spec: scenario %q: auto sampling: analytic failure probability %.3e is already >= %g and needs no tilting", e.Name, p0, autoTiltTarget)
	}
	// Bracket, then bisect: the Fail probability is monotone in the
	// joint rate scale.
	hi := 2.0
	for {
		pt, err := chainFail(cfg, hi)
		if err != nil {
			return 0, nil, fmt.Errorf("spec: scenario %q: auto sampling: %w", e.Name, err)
		}
		if pt >= autoTiltTarget {
			break
		}
		hi *= 2
		if hi > autoTiltMax {
			return 0, nil, fmt.Errorf("spec: scenario %q: auto sampling: no tilt factor <= %g reaches target failure probability %g", e.Name, autoTiltMax, autoTiltTarget)
		}
	}
	lo := hi / 2
	if lo < 1 {
		lo = 1
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		pt, err := chainFail(cfg, mid)
		if err != nil {
			return 0, nil, fmt.Errorf("spec: scenario %q: auto sampling: %w", e.Name, err)
		}
		if pt < autoTiltTarget {
			lo = mid
		} else {
			hi = mid
		}
	}
	factor := (lo + hi) / 2
	gate := func(cres *campaign.Result) error {
		est := cres.WeightedFraction(memsim.CounterCapabilityExceeded)
		se := cres.StdErr(memsim.CounterCapabilityExceeded)
		if se == 0 {
			if est == p0 {
				return nil
			}
			return fmt.Errorf("weighted %s estimate %.4e has zero standard error but disagrees with the analytic %.4e", memsim.CounterCapabilityExceeded, est, p0)
		}
		if dev := math.Abs(est-p0) / se; dev > 4 {
			return fmt.Errorf("weighted %s estimate %.4e deviates from the analytic chain's %.4e by %.1f standard errors (tilt %.6g)",
				memsim.CounterCapabilityExceeded, est, p0, dev, factor)
		}
		return nil
	}
	return factor, gate, nil
}
