package rs

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/gf"
)

// uncorrectableReasons lists the per-reason sentinels the BM decode
// paths return.
var uncorrectableReasons = []error{
	ErrTooManyErasures,
	ErrTooManyErrors,
	ErrLocatorRoots,
	ErrRepeatedRoot,
	ErrResidualSyndromes,
}

// TestUncorrectableSentinels: every reason wraps ErrUncorrectable, and
// no reason matches another under errors.Is.
func TestUncorrectableSentinels(t *testing.T) {
	for i, r := range uncorrectableReasons {
		if !errors.Is(r, ErrUncorrectable) {
			t.Errorf("%v does not wrap ErrUncorrectable", r)
		}
		for j, o := range uncorrectableReasons {
			if i != j && (errors.Is(r, o) || r.Error() == o.Error()) {
				t.Errorf("reasons %v and %v are indistinguishable", r, o)
			}
		}
	}
}

// failingWord draws a random codeword of c, corrupts up to n symbols
// and erases a random prefix of the corrupted positions half the time.
func failingWord(rng *rand.Rand, c *Code) ([]gf.Elem, []int) {
	cw, err := c.Encode(randData(rng, c))
	if err != nil {
		panic(err)
	}
	count := rng.Intn(c.N())
	word, pos := corrupt(rng, c, cw, count)
	var ers []int
	if count > 0 && rng.Intn(2) == 0 {
		ers = pos[:rng.Intn(count+1)]
	}
	return word, ers
}

// reasonOf returns the sentinel err is, or nil if it is none of them.
func reasonOf(err error) error {
	for _, r := range uncorrectableReasons {
		if err == r {
			return r
		}
	}
	return nil
}

// TestUncorrectableReasonsReached: over random heavily faulted words,
// every detected failure of Decoder.Decode and of DecodeAll is one of
// the sentinels itself (never a freshly formatted error), both paths
// report the same reason for the same word, and every reason except
// the residual-syndrome guard — which a correct key-equation solve
// never trips — is reached.
func TestUncorrectableReasonsReached(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	seen := map[error]int{}
	for _, c := range []*Code{MustNew(f8, 18, 16), MustNew(f8, 36, 16)} {
		dec := c.NewDecoder()
		bd := c.NewBatchDecoder()
		n := c.N()
		for i := 0; i < 4000; i++ {
			word, ers := failingWord(rng, c)
			_, err := dec.Decode(word, ers)
			arena := append([]gf.Elem(nil), word...)
			bres, berr := bd.DecodeAll(Batch{Words: arena, Stride: n, Count: 1}, [][]int{ers})
			if berr != nil {
				t.Fatal(berr)
			}
			if got := bres.Words[0].Err; got != err {
				t.Fatalf("%v word %d: DecodeAll err %v, Decode err %v", c, i, got, err)
			}
			if err == nil {
				continue
			}
			r := reasonOf(err)
			if r == nil {
				t.Fatalf("%v word %d: %v is not a reason sentinel", c, i, err)
			}
			if !errors.Is(err, ErrUncorrectable) {
				t.Fatalf("%v word %d: %v does not match ErrUncorrectable", c, i, err)
			}
			seen[r]++
		}
	}
	for _, r := range uncorrectableReasons {
		if r != ErrResidualSyndromes && seen[r] == 0 {
			t.Errorf("reason %q never reached", r)
		}
	}
}

// TestDecodeAllUncorrectableZeroAllocs: an arena of words that all
// fail to decode, for every reachable reason, decodes without heap
// allocation once the workspace is warm.
func TestDecodeAllUncorrectableZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	c := MustNew(f8, 36, 16)
	n := c.N()
	dec := c.NewDecoder()
	var arena []gf.Elem
	var erasures [][]int
	perReason := map[error]int{}
	for i := 0; i < 20000 && len(erasures) < 64; i++ {
		word, ers := failingWord(rng, c)
		_, err := dec.Decode(word, ers)
		if err == nil || perReason[err] >= 16 {
			continue
		}
		perReason[err]++
		arena = append(arena, word...)
		erasures = append(erasures, ers)
	}
	for _, r := range uncorrectableReasons {
		if r != ErrResidualSyndromes && perReason[r] == 0 {
			t.Fatalf("arena has no word failing with %q", r)
		}
	}
	bd := c.NewBatchDecoder()
	batch := Batch{Words: arena, Stride: n, Count: len(erasures)}
	run := func() {
		res, err := bd.DecodeAll(batch, erasures)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != batch.Count {
			t.Fatalf("%d of %d words failed, want all", res.Failed, batch.Count)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("%.1f allocs/op decoding uncorrectable words, want 0", allocs)
	}
}
