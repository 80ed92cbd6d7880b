package rs

import (
	"fmt"

	"repro/internal/gf"
	"repro/internal/gfpoly"
)

// This file holds the Sugiyama extended-Euclidean key-equation solver,
// the independent reference oracle the Berlekamp-Massey decoder is
// cross-checked against. It runs over the production front end
// (prepare) and the production back half after the solve (errata), so
// the two decoders differ only in how they find the errata locator.
// Bounded-distance decoders of the same code, they must accept and
// reject exactly the same received words and produce identical
// codewords.

// decodeEuclidean is Code.Decode with the key equation solved by the
// Sugiyama algorithm instead of Berlekamp-Massey. Unlike the BM path
// it allocates during the solve (gfpoly arithmetic); it borrows a
// pooled Decoder for the rest and returns an independent Result.
func decodeEuclidean(c *Code, received []gf.Elem, erasures []int) (*Result, error) {
	dec := c.decPool.Get().(*Decoder)
	defer c.decPool.Put(dec)
	if err := dec.prepare(received, erasures); err != nil {
		return nil, err
	}
	copy(dec.word, received)
	if allZero(dec.syn) {
		return dec.buildResult(received).clone(), nil
	}
	if err := dec.euclidSolve(len(erasures)); err != nil {
		return nil, err
	}
	res, err := dec.errata(received, nil)
	if err != nil {
		return nil, err
	}
	return res.clone(), nil
}

// euclidSolve solves the key equation by the Sugiyama
// extended-Euclidean algorithm: run Euclid on (x^d, Xi) where
// Xi = S*Gamma mod x^d are the modified syndromes, stopping when the
// remainder degree drops below (d+rho)/2; the accumulated multiplier
// is the error locator Lambda, and Psi = Lambda * Gamma is left in
// dec.psi. Unlike the BM path it allocates (gfpoly arithmetic): it is
// the independently-auditable reference solver, not the hot one.
func (dec *Decoder) euclidSolve(rho int) error {
	c := dec.c
	d := c.n - c.k
	ring := &gfpoly.Ring{F: c.f}
	g := gfpoly.Poly(dec.gamma).Clone()
	xi := ring.ModXPow(ring.Mul(gfpoly.Poly(dec.syn), g), d)
	if xi.IsZero() {
		// All errata sit in erased positions: Lambda = 1.
		return dec.setPsi(g)
	}
	rPrev := gfpoly.Monomial(d, 1)
	rCur := xi
	tPrev := gfpoly.Zero()
	tCur := gfpoly.One()
	stop := (d + rho) / 2
	for rCur.Degree() >= stop {
		quo, rem := ring.DivMod(rPrev, rCur)
		rPrev, rCur = rCur, rem
		tPrev, tCur = tCur, ring.Add(tPrev, ring.Mul(quo, tCur))
		if rCur.IsZero() {
			break
		}
	}
	lambda := tCur
	l0 := lambda.Coeff(0)
	if l0 == 0 {
		return fmt.Errorf("%w: euclid locator has zero constant term", ErrUncorrectable)
	}
	lambda = ring.Scale(lambda, c.f.Inv(l0))
	errs := lambda.Degree()
	if 2*errs+rho > d {
		return fmt.Errorf("%w: %d errors with %d erasures exceed n-k=%d", ErrUncorrectable, errs, rho, d)
	}
	return dec.setPsi(ring.Mul(lambda, g))
}

// setPsi copies a solver-produced errata locator into the workspace.
func (dec *Decoder) setPsi(psi gfpoly.Poly) error {
	d := dec.c.n - dec.c.k
	deg := psi.Degree()
	if deg > d {
		return fmt.Errorf("%w: errata locator degree %d exceeds n-k=%d", ErrUncorrectable, deg, d)
	}
	for i := range dec.psi {
		dec.psi[i] = psi.Coeff(i)
	}
	dec.psiDeg = deg
	return nil
}
