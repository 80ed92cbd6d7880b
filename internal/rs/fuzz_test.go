package rs

import (
	"errors"
	"testing"

	"repro/internal/gf"
)

// fuzzCodes are the codes FuzzDecode picks from: the paper's two
// GF(2^8) codes and a GF(2^4) code, whose 16-bit symbols let fuzz
// bytes land out of field range.
var fuzzCodes = []*Code{
	MustNew(f8, 18, 16),
	MustNew(f8, 36, 16),
	MustNew(gf.MustField(4), 15, 11),
}

// fuzzWord maps fuzz bytes onto a received word and an erasure list
// for c: data bytes (masked into the field) are encoded, then each
// (position, value) pair of errs XORs value into the word — unmasked,
// so values past the field make out-of-range symbols — and each byte b
// of ers names position int(b)%(n+2)-1, which is out of range for
// b%(n+2) in {0, n+1}. Duplicate erasures arise from repeated bytes.
func fuzzWord(t *testing.T, c *Code, data, errs, ers []byte) ([]gf.Elem, []int) {
	msg := make([]gf.Elem, c.K())
	mask := gf.Elem(c.Field().Size() - 1)
	for i := range msg {
		if i < len(data) {
			msg[i] = gf.Elem(data[i]) & mask
		}
	}
	word, err := c.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(errs); i += 2 {
		word[int(errs[i])%c.N()] ^= gf.Elem(errs[i+1])
	}
	var positions []int
	for _, b := range ers {
		positions = append(positions, int(b)%(c.N()+2)-1)
	}
	return word, positions
}

// sameFailure reports whether two decode errors are the same outcome:
// equal messages and the same answer to errors.Is for the class and
// every reason sentinel.
func sameFailure(a, b error) bool {
	if a.Error() != b.Error() || errors.Is(a, ErrUncorrectable) != errors.Is(b, ErrUncorrectable) {
		return false
	}
	for _, r := range uncorrectableReasons {
		if errors.Is(a, r) != errors.Is(b, r) {
			return false
		}
	}
	return true
}

// FuzzDecode pins the invariants of the one decode pipeline:
//
//  1. a successful Decoder.Decode returns a codeword, and its
//     ErrorPositions are exactly the indices it changed;
//  2. a one-word BatchDecoder.DecodeAll, in an arena of stride n+2,
//     reaches the same outcome — the same corrected word, or the same
//     error by reason and message with the word left as received — and
//     never touches the headroom; its Corrections is the number of
//     arena symbols the call changed, so an erasure whose received
//     symbol was already right counts zero (an in-place scrub relies
//     on this: no failure and no corrections means an unchanged arena);
//  3. the Euclidean oracle accepts and rejects the same words and
//     returns the same codeword.
func FuzzDecode(f *testing.F) {
	data := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	// Clean RS(18,16) word.
	f.Add(uint8(0), data, []byte(nil), []byte(nil))
	// t = 10 random errors on RS(36,16).
	f.Add(uint8(1), data, []byte{0, 1, 3, 2, 7, 3, 9, 4, 12, 5, 17, 6, 20, 7, 25, 8, 30, 9, 35, 10}, []byte(nil))
	// n-k = 20 erasures on RS(36,16), all of them wrong.
	f.Add(uint8(1), data,
		[]byte{0, 0x11, 2, 0x22, 4, 0x33, 6, 0x44, 8, 0x55, 10, 0x66, 12, 0x77, 14, 0x88, 16, 0x99, 18, 0xaa,
			20, 0xbb, 22, 0xcc, 24, 0xdd, 26, 0xee, 28, 0xff, 30, 0x01, 32, 0x02, 34, 0x03, 35, 0x04, 33, 0x05},
		[]byte{1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31, 33, 35, 36, 34})
	// n-k+1 = 3 erasures on RS(18,16).
	f.Add(uint8(0), data, []byte{4, 0x5a}, []byte{1, 5, 9})
	// Two erasures on RS(18,16) whose received symbols are right.
	f.Add(uint8(0), data, []byte(nil), []byte{2, 9})
	// Duplicate erasure.
	f.Add(uint8(0), data, []byte{4, 0x5a}, []byte{6, 6})
	// Out-of-range symbol on the GF(2^4) code.
	f.Add(uint8(2), data, []byte{3, 0x30}, []byte{2})

	f.Fuzz(func(t *testing.T, sel uint8, data, errs, ers []byte) {
		c := fuzzCodes[int(sel)%len(fuzzCodes)]
		n := c.N()
		word, erasures := fuzzWord(t, c, data, errs, ers)
		received := append([]gf.Elem(nil), word...)

		res, err := c.NewDecoder().Decode(word, erasures)
		if !equalElems(word, received) {
			t.Fatal("Decode modified its input")
		}
		if err == nil {
			if !c.IsCodeword(res.Codeword) {
				t.Fatal("accepted word is not a codeword")
			}
			var changed []int
			for i := range word {
				if res.Codeword[i] != word[i] {
					changed = append(changed, i)
				}
			}
			if len(changed) != len(res.ErrorPositions) || res.Corrections != len(changed) || res.Flag != (len(changed) > 0) {
				t.Fatalf("ErrorPositions %v, Corrections %d, Flag %v; changed %v",
					res.ErrorPositions, res.Corrections, res.Flag, changed)
			}
			for i, p := range changed {
				if res.ErrorPositions[i] != p {
					t.Fatalf("ErrorPositions %v, changed %v", res.ErrorPositions, changed)
				}
			}
		}

		const pad = 0x7e57
		arena := append(append([]gf.Elem(nil), word...), pad, pad)
		bres, berr := c.NewBatchDecoder().DecodeAll(Batch{Words: arena, Stride: n + 2, Count: 1}, [][]int{erasures})
		if berr != nil {
			t.Fatalf("DecodeAll: %v", berr)
		}
		if arena[n] != pad || arena[n+1] != pad {
			t.Fatal("DecodeAll wrote into the stride headroom")
		}
		wr := bres.Words[0]
		switch {
		case err == nil && wr.Err != nil:
			t.Fatalf("Decode accepted, DecodeAll failed: %v", wr.Err)
		case err != nil && wr.Err == nil:
			t.Fatalf("Decode failed (%v), DecodeAll accepted", err)
		case err != nil:
			if !sameFailure(err, wr.Err) {
				t.Fatalf("Decode failed with %q, DecodeAll with %q", err, wr.Err)
			}
			if !equalElems(arena[:n], word) {
				t.Fatal("DecodeAll modified a failed word")
			}
		default:
			if !equalElems(arena[:n], res.Codeword) || wr.Corrections != res.Corrections {
				t.Fatalf("DecodeAll corrected to %v (%d), Decode to %v (%d)",
					arena[:n], wr.Corrections, res.Codeword, res.Corrections)
			}
			changed := 0
			for i := range word {
				if arena[i] != word[i] {
					changed++
				}
			}
			if wr.Corrections != changed {
				t.Fatalf("DecodeAll reports %d corrections, changed %d arena symbols", wr.Corrections, changed)
			}
		}

		eu, euErr := decodeEuclidean(c, word, erasures)
		switch {
		case (err == nil) != (euErr == nil):
			t.Fatalf("BM err=%v, Euclid err=%v", err, euErr)
		case err == nil && !equalElems(eu.Codeword, res.Codeword):
			t.Fatalf("BM corrected to %v, Euclid to %v", res.Codeword, eu.Codeword)
		}
	})
}
