// Package interleave implements block interleaving of Reed-Solomon
// codewords — the memory-page organization of solid-state mass
// memories (paper ref [6]): a page is striped across d codewords so
// that a physical burst (a failed column, a multi-bit upset spanning
// adjacent symbols) lands on at most ceil(burst/d) symbols of any one
// codeword, multiplying the correctable burst length by the
// interleaving depth.
//
// The Page codec composes with internal/rs: data pages of depth*k
// symbols are encoded into depth*n stored symbols laid out
// codeword-interleaved (stored index i belongs to codeword i mod
// depth). Page.Locate is the one place that permutation is written.
// Encode and Decode go through it, and so does internal/pagesim, which
// keeps its page as a stripe-major arena and corrects it in place with
// rs.BatchDecoder.DecodeAll.
package interleave

import (
	"errors"
	"fmt"

	"repro/internal/gf"
	"repro/internal/rs"
)

// Page is an interleaved page codec: depth independent RS codewords
// striped symbol-by-symbol across the stored page.
type Page struct {
	code  *rs.Code
	depth int
	// loc is Locate's table, one entry per stored index: a lookup
	// instead of a division, because pagesim maps every flipped bit
	// through it.
	loc []slot
}

// slot is one stored symbol's place in the stripes.
type slot struct{ stripe, pos int32 }

// New builds a page codec with the given interleaving depth.
func New(code *rs.Code, depth int) (*Page, error) {
	if code == nil {
		return nil, fmt.Errorf("interleave: nil code")
	}
	if depth <= 0 {
		return nil, fmt.Errorf("interleave: nonpositive depth %d", depth)
	}
	loc := make([]slot, depth*code.N())
	for i := range loc {
		loc[i] = slot{stripe: int32(i % depth), pos: int32(i / depth)}
	}
	return &Page{code: code, depth: depth, loc: loc}, nil
}

// Code returns the per-stripe Reed-Solomon code.
func (p *Page) Code() *rs.Code { return p.code }

// Depth returns the interleaving depth.
func (p *Page) Depth() int { return p.depth }

// DataSymbols returns the page payload size in symbols: depth*k.
func (p *Page) DataSymbols() int { return p.depth * p.code.K() }

// StoredSymbols returns the stored page size in symbols: depth*n.
func (p *Page) StoredSymbols() int { return p.depth * p.code.N() }

// CorrectableBurst returns the guaranteed-correctable burst length in
// stored symbols when no other faults are present: each codeword
// absorbs t = floor((n-k)/2) random errors, and a burst of length L
// touches at most ceil(L/depth) symbols per codeword, so
// L = depth*t bursts always correct (an L+1 burst can overload one
// stripe).
func (p *Page) CorrectableBurst() int { return p.depth * p.code.T() }

// Locate maps stored index i of the page (0..depth*n-1) to its stripe
// and its position within that stripe's codeword: stored index
// j*depth+s holds symbol j of stripe s. For a systematic code the
// first depth*k stored symbols are the page payload in order, so
// payload index i maps the same way. Encode and Decode permute through
// it, and callers that keep a page as a stripe-major arena (word s at
// offset s*n) address their faults with it.
func (p *Page) Locate(i int) (stripe, pos int) {
	l := p.loc[i]
	return int(l.stripe), int(l.pos)
}

// Encode encodes a page of depth*k data symbols into a stored page of
// depth*n symbols, codeword-interleaved. It allocates its result and
// its scratch per call and is safe for concurrent use.
func (p *Page) Encode(data []gf.Elem) ([]gf.Elem, error) {
	if len(data) != p.DataSymbols() {
		return nil, fmt.Errorf("interleave: page data has %d symbols, want %d", len(data), p.DataSymbols())
	}
	n, k := p.code.N(), p.code.K()
	arena := make([]gf.Elem, p.StoredSymbols())
	for i, v := range data {
		s, j := p.Locate(i)
		arena[s*n+j] = v
	}
	for s := 0; s < p.depth; s++ {
		word := arena[s*n : (s+1)*n]
		if err := p.code.EncodeTo(word, word[:k]); err != nil {
			return nil, err
		}
	}
	stored := make([]gf.Elem, p.StoredSymbols())
	for i := range stored {
		s, j := p.Locate(i)
		stored[i] = arena[s*n+j]
	}
	return stored, nil
}

// DecodeResult reports a page decode.
type DecodeResult struct {
	// Data is the recovered page payload.
	Data []gf.Elem
	// CorrectedSymbols is the total number of symbol corrections
	// across all stripes.
	CorrectedSymbols int
	// FailedStripes lists stripe indices whose codeword was
	// uncorrectable; Data is only trustworthy when empty.
	FailedStripes []int
}

// Decode recovers a stored page. Erasure positions index the stored
// page (0..depth*n-1). Stripes that fail to decode are reported in
// FailedStripes and contribute their received (uncorrected) data
// symbols, mirroring a controller that flags but still returns the
// page. A malformed erasure list (a duplicate position, say) is an
// error, not a failed stripe. Decode allocates per call and is safe
// for concurrent use.
func (p *Page) Decode(stored []gf.Elem, erasures []int) (*DecodeResult, error) {
	if len(stored) != p.StoredSymbols() {
		return nil, fmt.Errorf("interleave: stored page has %d symbols, want %d", len(stored), p.StoredSymbols())
	}
	n := p.code.N()
	arena := make([]gf.Elem, p.StoredSymbols())
	for i, v := range stored {
		s, j := p.Locate(i)
		arena[s*n+j] = v
	}
	perStripe := make([][]int, p.depth)
	for _, e := range erasures {
		if e < 0 || e >= p.StoredSymbols() {
			return nil, fmt.Errorf("interleave: erasure %d out of range [0,%d)", e, p.StoredSymbols())
		}
		s, j := p.Locate(e)
		perStripe[s] = append(perStripe[s], j)
	}
	res := &DecodeResult{Data: make([]gf.Elem, p.DataSymbols())}
	for s := 0; s < p.depth; s++ {
		word := arena[s*n : (s+1)*n]
		dec, err := p.code.Decode(word, perStripe[s])
		switch {
		case err == nil:
			res.CorrectedSymbols += dec.Corrections
			copy(word, dec.Codeword)
		case errors.Is(err, rs.ErrUncorrectable):
			res.FailedStripes = append(res.FailedStripes, s)
		default:
			return nil, fmt.Errorf("interleave: stripe %d: %w", s, err)
		}
	}
	for i := range res.Data {
		s, j := p.Locate(i)
		res.Data[i] = arena[s*n+j]
	}
	return res, nil
}
