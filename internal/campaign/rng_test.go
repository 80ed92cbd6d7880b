package campaign

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// draws returns the first n Uint64s of (base, trial)'s stream.
func draws(r *TrialRNG, base int64, trial, n int) []uint64 {
	r.Key(base, trial)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

// TestTrialRNGSameKeySameDraws: a trial's draws depend only on
// (base, trial), never on which worker's generator draws them or what
// that generator drew before.
func TestTrialRNGSameKeySameDraws(t *testing.T) {
	a, b := NewTrialRNG(), NewTrialRNG()
	want := draws(a, 42, 1234, 16)
	// b has a different history: other trials, other bases, and the
	// derived Rand methods that consume a variable number of values.
	for trial := 0; trial < 50; trial++ {
		b.Key(int64(trial), trial*7)
		b.Intn(1000)
		b.ExpFloat64()
		b.NormFloat64()
	}
	got := draws(b, 42, 1234, 16)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d: worker b %#x, worker a %#x", i, got[i], want[i])
		}
	}
	// The derived methods replay too (a *rand.Rand keeps no state
	// outside its source that these methods touch).
	a.Key(9, 77)
	f1, n1, e1 := a.Float64(), a.Intn(18), a.ExpFloat64()
	b.Key(9, 77)
	if f2, n2, e2 := b.Float64(), b.Intn(18), b.ExpFloat64(); f1 != f2 || n1 != n2 || e1 != e2 {
		t.Errorf("derived draws differ: (%v %v %v) vs (%v %v %v)", f1, n1, e1, f2, n2, e2)
	}
}

// TestTrialRNGNoStreamAliasing: the math/rand reseeding reduced seeds
// mod 2^31-1, so trial i and trial i+2^31-1 replayed one stream. Every
// int trial index now has its own; different bases differ too.
func TestTrialRNGNoStreamAliasing(t *testing.T) {
	r := NewTrialRNG()
	const period = 1<<31 - 1
	for _, i := range []int{0, 5, 1 << 20} {
		x, y := draws(r, 7, i, 4), draws(r, 7, i+period, 4)
		if x[0] == y[0] && x[1] == y[1] {
			t.Errorf("trial %d and trial %d share a stream", i, i+period)
		}
	}
	if x, y := draws(r, 7, 3, 2), draws(r, 8, 3, 2); x[0] == y[0] && x[1] == y[1] {
		t.Error("bases 7 and 8 share trial 3's stream")
	}
	if x, y := draws(r, 7, math.MaxInt, 2), draws(r, 7, math.MaxInt-1, 2); x[0] == y[0] && x[1] == y[1] {
		t.Error("the two largest trial indices share a stream")
	}
}

// TestTrialRNGAdjacentTrialsUncorrelated: the first Float64 of 10^5
// consecutive trials shows no lag-1 correlation beyond 4 sigma (the
// estimate's standard error is 1/sqrt(N) for independent draws).
func TestTrialRNGAdjacentTrialsUncorrelated(t *testing.T) {
	const n = 100000
	r := NewTrialRNG()
	xs := make([]float64, n)
	for i := range xs {
		r.Key(2024, i)
		xs[i] = r.Float64()
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= n
	var num, den float64
	for i, x := range xs {
		d := x - mean
		den += d * d
		if i > 0 {
			num += d * (xs[i-1] - mean)
		}
	}
	rho := num / den
	if limit := 4 / math.Sqrt(n); math.Abs(rho) > limit {
		t.Errorf("lag-1 correlation %.5f exceeds 4 sigma (%.5f)", rho, limit)
	}
}

// TestNewPlanAcceptsTrialsBeyondInt31: the 2^31-1 stream cap is gone;
// the only limit left is the shard arithmetic (total+shardSize-1 must
// not overflow), tested at its boundary. Planning only — nothing runs.
func TestNewPlanAcceptsTrialsBeyondInt31(t *testing.T) {
	// ~4e10: the brute-force size weighted campaigns compare against.
	big := 40_000_000_000
	plan, err := NewPlan(&coinScenario{name: "big", trials: big}, 0, Partition{Index: 2, Count: 3})
	if err != nil {
		t.Fatalf("%d trials rejected: %v", big, err)
	}
	if want := (big + DefaultShardSize - 1) / DefaultShardSize; plan.NumShards != want {
		t.Errorf("NumShards = %d, want %d", plan.NumShards, want)
	}
	if _, hi := plan.ShardSpan(plan.End - 1); hi != big {
		t.Errorf("last shard ends at %d, want %d", hi, big)
	}

	const shard = 1000
	limit := math.MaxInt - (shard - 1)
	for _, parts := range []int{1, 3, 1 << 40} {
		idxs := []int{0}
		if parts > 2 {
			idxs = append(idxs, parts/2)
		}
		if parts > 1 {
			idxs = append(idxs, parts-1)
		}
		prev := 0
		for _, idx := range idxs {
			plan, err := NewPlan(&coinScenario{name: "edge", trials: limit}, shard, Partition{Index: idx, Count: parts})
			if err != nil {
				t.Fatalf("%d trials at shard %d rejected: %v", limit, shard, err)
			}
			if plan.First < prev || plan.End < plan.First || plan.End > plan.NumShards {
				t.Errorf("partition %d/%d: range [%d, %d) of %d shards", idx, parts, plan.First, plan.End, plan.NumShards)
			}
			prev = plan.End
			if idx == parts-1 {
				if plan.End != plan.NumShards {
					t.Errorf("last partition ends at shard %d of %d", plan.End, plan.NumShards)
				}
				if _, hi := plan.ShardSpan(plan.NumShards - 1); hi != limit {
					t.Errorf("last shard ends at %d, want %d", hi, limit)
				}
			}
		}
	}
	_, err = NewPlan(&coinScenario{name: "over", trials: limit + 1}, shard, Whole)
	if err == nil {
		t.Fatal("trial count overflowing the shard arithmetic accepted")
	}
	if !strings.Contains(err.Error(), "over") || !strings.Contains(err.Error(), "overflows") {
		t.Errorf("error %q does not name the scenario and the overflow", err)
	}
}

// assertNamesStamps checks that a refusal names both the artifact's
// stamp (absent here) and the engine's.
func assertNamesStamps(t *testing.T, err error) {
	t.Helper()
	for _, want := range []string{"unstamped", TrialStreams} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name stamp %q", err, want)
		}
	}
}

// stampFixtures are partial artifacts written by the engine before the
// trial-streams stamp existed (math/rand reseeding): an 8-trial
// unit-weight version-2 campaign and its weighted version-3 twin, two
// 4-trial shards each.
var stampFixtures = []struct {
	file     string
	scenario Scenario
}{
	{"mathrand-v2.partial.jsonl", &coinScenario{name: "fixture-coin", trials: 8}},
	{"mathrand-v3.partial.jsonl", &tiltScenario{name: "fixture-tilt", trials: 8}},
}

// TestUnstampedPartialRefused: an artifact without the current streams
// stamp is refused by Merge (alone, and next to a fresh partial of the
// same campaign, under any expected params digest) and by checkpoint
// resume, and the errors name both stamps. Artifact-level refusal by
// the fabric's upload validation goes through MatchesPlan, checked
// here too.
func TestUnstampedPartialRefused(t *testing.T) {
	for _, fx := range stampFixtures {
		t.Run(fx.file, func(t *testing.T) {
			orig, err := os.ReadFile(filepath.Join("testdata", fx.file))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), fx.file)
			if err := os.WriteFile(path, orig, 0o644); err != nil {
				t.Fatal(err)
			}
			old, err := OpenPartial(path)
			if err != nil {
				t.Fatalf("fixture does not load: %v", err)
			}
			defer old.Close()

			for _, digest := range []string{"", "some-digest"} {
				if _, err := Merge([]*Partial{old}, MergeConfig{ParamsDigest: digest}); err == nil {
					t.Errorf("Merge (digest %q) accepted an unstamped partial", digest)
				} else {
					assertNamesStamps(t, err)
				}
			}
			half, err := NewPlan(fx.scenario, 4, Partition{Index: 1, Count: 2})
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Execute(fx.scenario, half, ExecConfig{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Merge([]*Partial{fresh, old}, MergeConfig{}); err == nil {
				t.Error("Merge folded an unstamped partial into a fresh one")
			} else {
				assertNamesStamps(t, err)
			}

			whole, err := NewPlan(fx.scenario, 4, Whole)
			if err != nil {
				t.Fatal(err)
			}
			if err := old.MatchesPlan(whole); err == nil {
				t.Error("MatchesPlan accepted an unstamped partial")
			} else {
				assertNamesStamps(t, err)
			}
			if _, err := Execute(fx.scenario, whole, ExecConfig{Workers: 1, Artifact: path}); err == nil {
				t.Error("resumed from an unstamped checkpoint")
			} else {
				assertNamesStamps(t, err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, orig) {
				t.Errorf("refused checkpoint was modified (err %v)", err)
			}
		})
	}
}

// TestStreamsStampWritten: every artifact this engine writes carries
// the stamp, and the campaign fingerprint includes it.
func TestStreamsStampWritten(t *testing.T) {
	scn := &coinScenario{name: "stamped", trials: 40, seed: 1, p: 0.5}
	plan, err := NewPlan(scn, 10, Whole)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.jsonl")
	p, err := Execute(scn, plan, ExecConfig{Workers: 2, Artifact: path})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, _, _ := strings.Cut(string(data), "\n")
	if !strings.Contains(head, `"streams":"`+TrialStreams+`"`) {
		t.Errorf("artifact header %s lacks the streams stamp", head)
	}
	if fp := plan.header().fingerprint(); !strings.Contains(fp, TrialStreams) {
		t.Errorf("fingerprint %q lacks the streams stamp", fp)
	}
}
