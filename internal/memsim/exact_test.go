package memsim

import (
	"math"
	"testing"

	"repro/internal/duplex"
	"repro/internal/simplex"
)

// TestExactCapabilityExceededPinned pins the closed form at the xval
// rates against values computed independently by direct multinomial
// summation (simplex) and a per-position enumeration (duplex).
func TestExactCapabilityExceededPinned(t *testing.T) {
	for _, tc := range []struct {
		duplex bool
		want   float64
	}{
		{false, 0.9177031142084456},
		{true, 0.9907493146483725},
	} {
		got, ok := ExactCapabilityExceeded(Config{
			Code: code, Duplex: tc.duplex, LambdaBit: 6e-4, LambdaSymbol: 2e-4, Horizon: 48,
		})
		if !ok {
			t.Fatalf("duplex=%t: no closed form for an unscrubbed, immediately located config", tc.duplex)
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("duplex=%t: exact %.16g, want %.16g", tc.duplex, got, tc.want)
		}
	}
}

// TestExactCapabilityExceededScope: scrubbing and detection latency
// couple positions through time, so they have no closed form here.
func TestExactCapabilityExceededScope(t *testing.T) {
	base := Config{Code: code, LambdaBit: 6e-4, LambdaSymbol: 2e-4, Horizon: 48}
	for name, edit := range map[string]func(*Config){
		"scrubbed": func(c *Config) { c.ScrubPeriod = 4 },
		"latency":  func(c *Config) { c.DetectionLatency = 2 },
		"no code":  func(c *Config) { c.Code = nil },
	} {
		c := base
		edit(&c)
		if _, ok := ExactCapabilityExceeded(c); ok {
			t.Errorf("%s: closed form claimed", name)
		}
	}
}

// TestChainBoundsExact: the chains count a struck symbol as wrong for
// good, ignoring bit cancellation, so their Fail probability is never
// below the exact value; without SEUs there is nothing to cancel and
// the simplex chain is exact.
func TestChainBoundsExact(t *testing.T) {
	for _, tc := range []struct{ lambda, lambdaE, horizon float64 }{
		{6e-4, 2e-4, 48},
		{1e-4, 5e-5, 200},
		{2e-3, 0, 24},
		{1.7e-8, 8.5e-10, 48},
	} {
		cfg := Config{Code: code, LambdaBit: tc.lambda, LambdaSymbol: tc.lambdaE, Horizon: tc.horizon}
		sp := simplex.Params{N: 18, K: 16, M: 8, Lambda: tc.lambda, LambdaE: tc.lambdaE}
		sChain, err := simplex.FailProbabilities(sp, []float64{tc.horizon})
		if err != nil {
			t.Fatal(err)
		}
		sExact, _ := ExactCapabilityExceeded(cfg)
		cfg.Duplex = true
		dChain, err := duplex.FailProbabilities(duplex.Params{N: 18, K: 16, M: 8, Lambda: tc.lambda, LambdaE: tc.lambdaE}, []float64{tc.horizon})
		if err != nil {
			t.Fatal(err)
		}
		dExact, _ := ExactCapabilityExceeded(cfg)
		// The chains are solved numerically: allow their round-off.
		slack := func(p float64) float64 { return 1e-9 * p }
		if sChain[0] < sExact-slack(sExact) {
			t.Errorf("%+v: simplex chain %.6g below exact %.6g", tc, sChain[0], sExact)
		}
		if dChain[0] < dExact-slack(dExact) {
			t.Errorf("%+v: duplex chain %.6g below exact %.6g", tc, dChain[0], dExact)
		}
		if tc.lambda == 6e-4 && !(sChain[0]-sExact > 0.003 && dChain[0]-dExact > 0.001) {
			t.Errorf("xval rates: chain-exact gaps %.5f (simplex) and %.5f (duplex) lost the bit-cancellation term",
				sChain[0]-sExact, dChain[0]-dExact)
		}
	}
	sp := simplex.Params{N: 18, K: 16, M: 8, LambdaE: 3e-3}
	chain, err := simplex.FailProbabilities(sp, []float64{100})
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := ExactCapabilityExceeded(Config{Code: code, LambdaSymbol: 3e-3, Horizon: 100})
	if math.Abs(chain[0]-exact) > 1e-9*exact {
		t.Errorf("permanent faults only: simplex chain %.12g, exact %.12g", chain[0], exact)
	}
}
