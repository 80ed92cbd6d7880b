package campaign

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestDigestRefusesStaleResume: a checkpoint written under one params
// digest must refuse to resume under a different one even though the
// scenario name (which the fingerprint previously relied on alone) is
// unchanged — the regression for spec-entry params edits that a
// kind's Name does not encode.
func TestDigestRefusesStaleResume(t *testing.T) {
	scn := &coinScenario{name: "digested", trials: 300, seed: 3, p: 0.4}
	cp := filepath.Join(t.TempDir(), "digest.ckpt")

	want := run(t, scn, Config{ShardSize: 64, ParamsDigest: "digest-a"})
	if _, err := Run(scn, Config{ShardSize: 64, Checkpoint: cp, ParamsDigest: "digest-a"}); err != nil {
		t.Fatal(err)
	}

	// Same name, different digest: the artifact is stale.
	_, err := Run(scn, Config{ShardSize: 64, Checkpoint: cp, ParamsDigest: "digest-b"})
	if err == nil {
		t.Fatal("resume under an edited params digest succeeded")
	}
	if !strings.Contains(err.Error(), "different scenario params") {
		t.Errorf("unhelpful digest-mismatch error: %v", err)
	}

	// The matching digest resumes bit-identically, and a digest-less
	// engine run (no spec layer) still accepts the artifact.
	for _, digest := range []string{"digest-a", ""} {
		cres, err := Run(scn, Config{ShardSize: 64, Checkpoint: cp, ParamsDigest: digest})
		if err != nil {
			t.Fatalf("digest %q: %v", digest, err)
		}
		if cres.ResumedTrials != scn.trials {
			t.Fatalf("digest %q: resumed %d trials, want %d", digest, cres.ResumedTrials, scn.trials)
		}
		got := *cres
		got.ResumedTrials = 0
		if !reflect.DeepEqual(want, &got) {
			t.Errorf("digest %q: resumed result diverged", digest)
		}
	}
}

// TestDigestlessArtifactStaysResumable: artifacts written before the
// digest existed (header without the field) resume under any digest —
// the documented pre-digest caveat.
func TestDigestlessArtifactStaysResumable(t *testing.T) {
	scn := &coinScenario{name: "pre-digest", trials: 200, seed: 5, p: 0.3}
	cp := filepath.Join(t.TempDir(), "predigest.ckpt")
	if _, err := Run(scn, Config{ShardSize: 64, Checkpoint: cp}); err != nil {
		t.Fatal(err)
	}
	cres, err := Run(scn, Config{ShardSize: 64, Checkpoint: cp, ParamsDigest: "added-later"})
	if err != nil {
		t.Fatalf("digest-less artifact refused under a new digest: %v", err)
	}
	if cres.ResumedTrials != scn.trials {
		t.Fatalf("resumed %d trials, want %d", cres.ResumedTrials, scn.trials)
	}
}

// TestMergeRefusesConflictingDigests: partials computed under
// different params digests must not fold into one result, and a
// caller-supplied expected digest rejects stale partials; empty
// digests stay compatible with everything.
func TestMergeRefusesConflictingDigests(t *testing.T) {
	scn := &coinScenario{name: "merge-digest", trials: 400, seed: 9, p: 0.25}
	execute := func(part Partition, digest string) *Partial {
		t.Helper()
		plan, err := NewPlan(scn, 64, part)
		if err != nil {
			t.Fatal(err)
		}
		plan.ParamsDigest = digest
		partial, err := Execute(scn, plan, ExecConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return partial
	}

	a := execute(Partition{Index: 0, Count: 2}, "digest-a")
	b := execute(Partition{Index: 1, Count: 2}, "digest-b")
	if _, err := Merge([]*Partial{a, b}, MergeConfig{}); err == nil {
		t.Error("merge of conflicting digests succeeded")
	} else if !strings.Contains(err.Error(), "different scenario params") {
		t.Errorf("unhelpful conflicting-digest error: %v", err)
	}

	aa := execute(Partition{Index: 1, Count: 2}, "digest-a")
	if _, err := Merge([]*Partial{a, aa}, MergeConfig{}); err != nil {
		t.Errorf("matching digests refused: %v", err)
	}
	if _, err := Merge([]*Partial{a, aa}, MergeConfig{ParamsDigest: "digest-b"}); err == nil {
		t.Error("merge for an edited spec accepted stale partials")
	}
	if _, err := Merge([]*Partial{a, aa}, MergeConfig{ParamsDigest: "digest-a"}); err != nil {
		t.Errorf("matching expected digest refused: %v", err)
	}

	// Pre-digest partials (empty digest) merge with digest-bearing
	// ones and under any expected digest — the documented caveat.
	empty := execute(Partition{Index: 1, Count: 2}, "")
	if _, err := Merge([]*Partial{a, empty}, MergeConfig{ParamsDigest: "digest-a"}); err != nil {
		t.Errorf("pre-digest partial refused: %v", err)
	}
}
