package interleave

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gf"
	"repro/internal/rs"
)

var (
	f8     = gf.MustField(8)
	code   = rs.MustNew(f8, 18, 16)
	code36 = rs.MustNew(f8, 36, 16)
)

func randPage(rng *rand.Rand, p *Page) []gf.Elem {
	data := make([]gf.Elem, p.DataSymbols())
	for i := range data {
		data[i] = gf.Elem(rng.Intn(256))
	}
	return data
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 4); err == nil {
		t.Error("nil code accepted")
	}
	if _, err := New(code, 0); err == nil {
		t.Error("zero depth accepted")
	}
	if _, err := New(code, -1); err == nil {
		t.Error("negative depth accepted")
	}
	p, err := New(code, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Depth() != 4 || p.Code() != code {
		t.Error("accessors wrong")
	}
	if p.DataSymbols() != 64 || p.StoredSymbols() != 72 {
		t.Errorf("sizes: data=%d stored=%d", p.DataSymbols(), p.StoredSymbols())
	}
}

func TestEncodeDecodeClean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, depth := range []int{1, 2, 4, 8} {
		p, err := New(code, depth)
		if err != nil {
			t.Fatal(err)
		}
		data := randPage(rng, p)
		stored, err := p.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Decode(stored, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.FailedStripes) != 0 || res.CorrectedSymbols != 0 {
			t.Fatalf("depth %d: clean page not clean: %+v", depth, res)
		}
		for i := range data {
			if res.Data[i] != data[i] {
				t.Fatalf("depth %d: data mismatch at %d", depth, i)
			}
		}
	}
}

func TestEncodeValidation(t *testing.T) {
	p, _ := New(code, 4)
	if _, err := p.Encode(make([]gf.Elem, 63)); err == nil {
		t.Error("short page accepted")
	}
	if _, err := p.Decode(make([]gf.Elem, 71), nil); err == nil {
		t.Error("short stored page accepted")
	}
	stored := make([]gf.Elem, 72)
	if _, err := p.Decode(stored, []int{72}); err == nil {
		t.Error("out-of-range erasure accepted")
	}
}

// TestBurstCorrection is the point of interleaving: a contiguous burst
// of depth*t corrupted stored symbols always corrects, because it
// spreads across stripes.
func TestBurstCorrection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, depth := range []int{2, 4, 8} {
		p, err := New(code, depth) // t = 1 per stripe
		if err != nil {
			t.Fatal(err)
		}
		burst := p.CorrectableBurst()
		if burst != depth {
			t.Fatalf("depth %d: correctable burst %d, want %d", depth, burst, depth)
		}
		for trial := 0; trial < 50; trial++ {
			data := randPage(rng, p)
			stored, _ := p.Encode(data)
			start := rng.Intn(p.StoredSymbols() - burst)
			for i := start; i < start+burst; i++ {
				stored[i] ^= gf.Elem(1 + rng.Intn(255))
			}
			res, err := p.Decode(stored, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.FailedStripes) != 0 {
				t.Fatalf("depth %d: burst of %d not corrected (failed stripes %v)", depth, burst, res.FailedStripes)
			}
			for i := range data {
				if res.Data[i] != data[i] {
					t.Fatalf("depth %d: wrong data after burst", depth)
				}
			}
			if res.CorrectedSymbols != burst {
				t.Fatalf("corrected %d symbols, want %d", res.CorrectedSymbols, burst)
			}
		}
	}
}

// TestBurstBeyondDepthOverloadsOneStripe: a burst one longer than the
// guarantee puts two errors into one stripe of a t=1 code.
func TestBurstBeyondDepthOverloadsOneStripe(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, _ := New(code, 4)
	burst := p.CorrectableBurst() + 1
	sawFailure := false
	for trial := 0; trial < 200 && !sawFailure; trial++ {
		data := randPage(rng, p)
		stored, _ := p.Encode(data)
		start := rng.Intn(p.StoredSymbols() - burst)
		for i := start; i < start+burst; i++ {
			stored[i] ^= gf.Elem(1 + rng.Intn(255))
		}
		res, err := p.Decode(stored, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The overloaded stripe either reports failure or, rarely,
		// mis-corrects; both manifest as a failed stripe or wrong data.
		if len(res.FailedStripes) > 0 {
			sawFailure = true
			continue
		}
		for i := range data {
			if res.Data[i] != data[i] {
				sawFailure = true
				break
			}
		}
	}
	if !sawFailure {
		t.Error("burst beyond the guarantee never overloaded a stripe in 200 trials")
	}
}

// TestColumnEraseAcrossPage: a failed memory column (same stored
// offset in every stripe group) is one erasure per stripe — well
// within even RS(18,16), and exactly the ref [6] failure scenario.
func TestColumnEraseAcrossPage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p, _ := New(code, 8)
	data := randPage(rng, p)
	stored, _ := p.Encode(data)
	// Stored symbols j*depth+s for fixed j ("column" j of the page):
	// one symbol in every stripe.
	col := 7
	var erasures []int
	for s := 0; s < 8; s++ {
		idx := col*8 + s
		stored[idx] = 0xAA
		erasures = append(erasures, idx)
	}
	res, err := p.Decode(stored, erasures)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedStripes) != 0 {
		t.Fatalf("column erasure not recovered: %v", res.FailedStripes)
	}
	for i := range data {
		if res.Data[i] != data[i] {
			t.Fatal("wrong data after column erasure")
		}
	}
}

func TestWideCodeDeepBurst(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p, err := New(code36, 4) // t = 10: burst guarantee 40 symbols
	if err != nil {
		t.Fatal(err)
	}
	if p.CorrectableBurst() != 40 {
		t.Fatalf("burst guarantee %d, want 40", p.CorrectableBurst())
	}
	data := randPage(rng, p)
	stored, _ := p.Encode(data)
	start := 17
	for i := start; i < start+40; i++ {
		stored[i] ^= gf.Elem(1 + rng.Intn(255))
	}
	res, err := p.Decode(stored, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedStripes) != 0 {
		t.Fatal("40-symbol burst not corrected by depth-4 RS(36,16)")
	}
	for i := range data {
		if res.Data[i] != data[i] {
			t.Fatal("wrong data")
		}
	}
}

func TestFailedStripeStillReturnsOtherStripes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p, _ := New(code, 4)
	data := randPage(rng, p)
	stored, _ := p.Encode(data)
	// Overload stripe 2 with three errors (t=1 code, detected failure
	// for most patterns); leave others clean.
	corrupted := 0
	for j := 0; j < p.Code().N() && corrupted < 3; j++ {
		stored[j*4+2] ^= 0x55
		corrupted++
	}
	res, err := p.Decode(stored, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedStripes) == 0 {
		// The pattern mis-corrected instead — acceptable for this
		// seed-free structural test; just require wrong data.
		same := true
		for i := range data {
			if res.Data[i] != data[i] {
				same = false
			}
		}
		if same {
			t.Fatal("three errors in one stripe decoded cleanly")
		}
		return
	}
	if res.FailedStripes[0] != 2 {
		t.Errorf("failed stripes %v, want [2]", res.FailedStripes)
	}
	// All other stripes' data must be intact.
	for i := range data {
		if i%4 != 2 && res.Data[i] != data[i] {
			t.Fatalf("healthy stripe corrupted at %d", i)
		}
	}
}

// TestCodecMatchesPage: the reusable workspace must reproduce
// Page.Encode/Decode exactly — clean, bursty and erasure-bearing
// pages, including failed-stripe fallback data.
func TestCodecMatchesPage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, depth := range []int{1, 2, 4, 8} {
		p, err := New(code, depth)
		if err != nil {
			t.Fatal(err)
		}
		c := p.NewCodec()
		if c.Page() != p {
			t.Fatal("codec page accessor wrong")
		}
		stored2 := make([]gf.Elem, p.StoredSymbols())
		var res2 DecodeResult
		for trial := 0; trial < 50; trial++ {
			data := randPage(rng, p)
			stored, err := p.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.EncodeTo(stored2, data); err != nil {
				t.Fatal(err)
			}
			for i := range stored {
				if stored[i] != stored2[i] {
					t.Fatalf("depth %d: EncodeTo differs at %d", depth, i)
				}
			}
			// Corrupt: a burst plus a couple of random symbols, with one
			// erased column symbol, so all decode paths are exercised.
			var erasures []int
			switch trial % 3 {
			case 1:
				start := rng.Intn(p.StoredSymbols() - 3)
				for i := start; i < start+3; i++ {
					stored[i] ^= gf.Elem(1 + rng.Intn(255))
				}
			case 2:
				e := rng.Intn(p.StoredSymbols())
				stored[e] = 0xAA
				erasures = []int{e}
				stored[rng.Intn(p.StoredSymbols())] ^= gf.Elem(1 + rng.Intn(255))
			}
			copy(stored2, stored)
			want, err := p.Decode(stored, erasures)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.DecodeTo(&res2, stored2, erasures); err != nil {
				t.Fatal(err)
			}
			if want.CorrectedSymbols != res2.CorrectedSymbols {
				t.Fatalf("depth %d trial %d: corrected %d vs %d", depth, trial, want.CorrectedSymbols, res2.CorrectedSymbols)
			}
			if len(want.FailedStripes) != len(res2.FailedStripes) {
				t.Fatalf("depth %d trial %d: failed stripes %v vs %v", depth, trial, want.FailedStripes, res2.FailedStripes)
			}
			for i := range want.FailedStripes {
				if want.FailedStripes[i] != res2.FailedStripes[i] {
					t.Fatalf("failed stripes %v vs %v", want.FailedStripes, res2.FailedStripes)
				}
			}
			for i := range want.Data {
				if want.Data[i] != res2.Data[i] {
					t.Fatalf("depth %d trial %d: data differs at %d", depth, trial, i)
				}
			}
		}
	}
}

func TestCodecValidation(t *testing.T) {
	p, _ := New(code, 4)
	c := p.NewCodec()
	var res DecodeResult
	if err := c.EncodeTo(make([]gf.Elem, 72), make([]gf.Elem, 63)); err == nil {
		t.Error("short data accepted")
	}
	if err := c.EncodeTo(make([]gf.Elem, 71), make([]gf.Elem, 64)); err == nil {
		t.Error("short stored accepted")
	}
	if err := c.DecodeTo(&res, make([]gf.Elem, 71), nil); err == nil {
		t.Error("short stored page accepted")
	}
	if err := c.DecodeTo(&res, make([]gf.Elem, 72), []int{-1}); err == nil {
		t.Error("negative erasure accepted")
	}
}

// TestCodecZeroAllocs pins the workspace contract: steady-state page
// encode and decode (clean and with corrections) allocate nothing.
func TestCodecZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p, _ := New(code, 4)
	c := p.NewCodec()
	data := randPage(rng, p)
	stored := make([]gf.Elem, p.StoredSymbols())
	var res DecodeResult
	if err := c.EncodeTo(stored, data); err != nil {
		t.Fatal(err)
	}
	if err := c.DecodeTo(&res, stored, nil); err != nil {
		t.Fatal(err) // warm res buffers before measuring
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := c.EncodeTo(stored, data); err != nil {
			t.Fatal(err)
		}
		stored[11] ^= 0x3C
		if err := c.DecodeTo(&res, stored, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state encode+decode allocates %.1f times per page", allocs)
	}
}

func BenchmarkEncodePageDepth8(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	p, _ := New(code, 8)
	data := randPage(rng, p)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePageDepth8Burst(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	p, _ := New(code, 8)
	data := randPage(rng, p)
	stored, _ := p.Encode(data)
	for i := 30; i < 38; i++ {
		stored[i] ^= 0x3C
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Decode(stored, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecEncodePageDepth8 / BenchmarkCodecDecodePageDepth8Burst
// track the allocation-free workspace the pagesim campaigns run on;
// both are gated by BENCH_baseline.json in CI.
func BenchmarkCodecEncodePageDepth8(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	p, _ := New(code, 8)
	c := p.NewCodec()
	data := randPage(rng, p)
	stored := make([]gf.Elem, p.StoredSymbols())
	b.ReportAllocs()
	b.SetBytes(int64(p.StoredSymbols()))
	for i := 0; i < b.N; i++ {
		if err := c.EncodeTo(stored, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecodePageDepth8Burst(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	p, _ := New(code, 8)
	c := p.NewCodec()
	data := randPage(rng, p)
	stored, _ := p.Encode(data)
	for i := 30; i < 38; i++ {
		stored[i] ^= 0x3C
	}
	work := make([]gf.Elem, len(stored))
	var res DecodeResult
	b.ReportAllocs()
	b.SetBytes(int64(p.StoredSymbols()))
	for i := 0; i < b.N; i++ {
		copy(work, stored)
		if err := c.DecodeTo(&res, work, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCodewordIsCorrectedStripe is the identity scrub write-back rests
// on: after DecodeTo over randomly faulted pages (heavy errors, so
// RS(18,16) miscorrects, plus erasure lists), every decoded stripe's
// Codeword is a codeword equal to the encoding of that stripe's
// recovered data, and every failed stripe's Codeword is the received
// symbols.
func TestCodewordIsCorrectedStripe(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	miscorrected := map[*rs.Code]int{}
	failed := 0
	for _, c := range []*rs.Code{code, code36} {
		for _, depth := range []int{1, 4, 8} {
			p, err := New(c, depth)
			if err != nil {
				t.Fatal(err)
			}
			codec := p.NewCodec()
			n, k := c.N(), c.K()
			stored := make([]gf.Elem, p.StoredSymbols())
			received := make([]gf.Elem, p.StoredSymbols())
			stripeData := make([]gf.Elem, k)
			want := make([]gf.Elem, n)
			var res DecodeResult
			for trial := 0; trial < 300; trial++ {
				if err := codec.EncodeTo(stored, randPage(rng, p)); err != nil {
					t.Fatal(err)
				}
				truth := append([]gf.Elem(nil), stored...)
				for _, i := range rng.Perm(len(stored))[:rng.Intn(depth*(n-k)+depth+1)] {
					stored[i] ^= gf.Elem(1 + rng.Intn(255))
				}
				erasures := rng.Perm(len(stored))[:rng.Intn(depth*(n-k)+1)]
				copy(received, stored)
				if err := codec.DecodeTo(&res, stored, erasures); err != nil {
					t.Fatal(err)
				}
				isFailed := make([]bool, depth)
				for _, s := range res.FailedStripes {
					isFailed[s] = true
				}
				for s := 0; s < depth; s++ {
					cw := codec.Codeword(s)
					if len(cw) != n {
						t.Fatalf("Codeword(%d) has %d symbols, want %d", s, len(cw), n)
					}
					if isFailed[s] {
						failed++
						for j := range cw {
							if cw[j] != received[j*depth+s] {
								t.Fatalf("%v depth %d trial %d: failed stripe %d symbol %d = %d, received %d",
									c, depth, trial, s, j, cw[j], received[j*depth+s])
							}
						}
						continue
					}
					if !c.IsCodeword(cw) {
						t.Fatalf("%v depth %d trial %d: decoded stripe %d has nonzero syndromes", c, depth, trial, s)
					}
					for j := range stripeData {
						stripeData[j] = res.Data[j*depth+s]
					}
					if err := c.EncodeTo(want, stripeData); err != nil {
						t.Fatal(err)
					}
					for j := range cw {
						if cw[j] != want[j] {
							t.Fatalf("%v depth %d trial %d: stripe %d symbol %d = %d, re-encode gives %d",
								c, depth, trial, s, j, cw[j], want[j])
						}
					}
					for j := range cw {
						if cw[j] != truth[j*depth+s] {
							miscorrected[c]++
							break
						}
					}
				}
				if !slices.Equal(stored, received) {
					t.Fatalf("%v depth %d trial %d: DecodeTo modified the stored page", c, depth, trial)
				}
			}
		}
	}
	if miscorrected[code] == 0 || failed == 0 {
		t.Errorf("property not exercised: %d RS(18,16) miscorrections, %d failed stripes", miscorrected[code], failed)
	}
	t.Logf("miscorrected stripes: %d RS(18,16), %d RS(36,16); %d failed", miscorrected[code], miscorrected[code36], failed)
}
