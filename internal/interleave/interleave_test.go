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
	// A duplicate position is a malformed list, not an uncorrectable
	// stripe.
	p2, _ := New(code, 2)
	if res, err := p2.Decode(make([]gf.Elem, 36), []int{4, 4}); err == nil {
		t.Errorf("duplicate erasure accepted: failed stripes %v", res.FailedStripes)
	}
}

// TestLocate pins the one permutation: Locate is a bijection from
// stored indices onto (stripe, position) pairs, and Encode stores
// symbol j of stripe s at the index Locate maps there.
func TestLocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, depth := range []int{1, 3, 8} {
		p, _ := New(code, depth)
		n, k := code.N(), code.K()
		data := randPage(rng, p)
		stored, err := p.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		stripes := make([]gf.Elem, p.StoredSymbols())
		seen := make([]bool, p.StoredSymbols())
		for i := range stored {
			s, j := p.Locate(i)
			if s < 0 || s >= depth || j < 0 || j >= n || seen[s*n+j] {
				t.Fatalf("depth %d: Locate(%d) = (%d, %d) out of range or repeated", depth, i, s, j)
			}
			seen[s*n+j] = true
			stripes[s*n+j] = stored[i]
			if i < len(data) && stored[i] != data[i] {
				t.Fatalf("depth %d: stored %d is not payload %d", depth, i, i)
			}
		}
		for s := 0; s < depth; s++ {
			want, err := code.Encode(stripes[s*n : s*n+k])
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(stripes[s*n:(s+1)*n], want) {
				t.Fatalf("depth %d: stripe %d is not the encoding of its data", depth, s)
			}
		}
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

// stripeArena lays a page payload out stripe-major through Locate
// (word s at offset s*n) and encodes each stripe in place — the page
// layout internal/pagesim corrects with rs.BatchDecoder.DecodeAll.
func stripeArena(t *testing.T, p *Page, arena, data []gf.Elem) {
	t.Helper()
	n, k := p.Code().N(), p.Code().K()
	for i, v := range data {
		s, j := p.Locate(i)
		arena[s*n+j] = v
	}
	for s := 0; s < p.Depth(); s++ {
		word := arena[s*n : (s+1)*n]
		if err := p.Code().EncodeTo(word, word[:k]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCodecZeroAllocs pins the workspace contract of the in-place page
// codec: steady-state encode into a stripe-major arena through Locate
// and decode (clean and with corrections) by one DecodeAll allocate
// nothing, and the decode restores the encoded page.
func TestCodecZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p, _ := New(code, 4)
	n := code.N()
	data := randPage(rng, p)
	arena := make([]gf.Elem, p.StoredSymbols())
	truth := make([]gf.Elem, p.StoredSymbols())
	stripeArena(t, p, truth, data)
	bd := code.NewBatchDecoder()
	batch := rs.Batch{Words: arena, Stride: n, Count: p.Depth()}
	s, j := p.Locate(11)
	run := func() {
		stripeArena(t, p, arena, data)
		if res, err := bd.DecodeAll(batch, nil); err != nil || res.Clean != p.Depth() {
			t.Fatalf("clean page: err %v, result %+v", err, res)
		}
		arena[s*n+j] ^= 0x3C
		res, err := bd.DecodeAll(batch, nil)
		if err != nil || res.Corrected != 1 || res.Failed != 0 || res.Words[s].Corrections != 1 {
			t.Fatalf("one corrupted symbol: err %v, result %+v", err, res)
		}
		if !slices.Equal(arena, truth) {
			t.Fatal("decoded page differs from the encoded page")
		}
	}
	run() // warm the result buffers before measuring
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("steady-state encode+decode allocates %.1f times per page", allocs)
	}
}

// TestDecodeSequenceZeroAllocs pins the steady state of decoding a
// sequence of pages through one reused BatchDecoder: a stable set of
// stored erasures, mapped to per-stripe lists through Locate once,
// costs no per-page heap allocation, and every page comes back intact.
func TestDecodeSequenceZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	p, err := New(code36, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := code36.N()
	const pages = 8
	ers := make([][]int, p.Depth())
	for _, e := range []int{7, 33, 80} {
		s, j := p.Locate(e)
		ers[s] = append(ers[s], j)
	}
	truth := make([][]gf.Elem, pages)
	received := make([][]gf.Elem, pages)
	for i := range truth {
		truth[i] = make([]gf.Elem, p.StoredSymbols())
		stripeArena(t, p, truth[i], randPage(rng, p))
		received[i] = slices.Clone(truth[i])
		for s, list := range ers {
			for _, j := range list {
				received[i][s*n+j] = gf.Elem(rng.Intn(256))
			}
		}
	}
	arena := make([]gf.Elem, p.StoredSymbols())
	bd := code36.NewBatchDecoder()
	batch := rs.Batch{Words: arena, Stride: n, Count: p.Depth()}
	run := func() {
		for i := range received {
			copy(arena, received[i])
			res, err := bd.DecodeAll(batch, ers)
			if err != nil || res.Failed != 0 {
				t.Fatalf("page %d: err %v, result %+v", i, err, res)
			}
			if !slices.Equal(arena, truth[i]) {
				t.Fatalf("page %d: decoded page differs from the encoded page", i)
			}
		}
	}
	run() // warm the erasure-set cache and result buffers
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("steady-state page sequence allocates %.1f per run, want 0", allocs)
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
