package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaign/spec"
)

// TestGenerateDeterministic: the same seed gives the same bytes, and a
// different seed changes only "seed" fields.
func TestGenerateDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a, err := generate(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := generate(w, 7)
		other, _ := generate(w, 8)
		for i := range a {
			if !bytes.Equal(a[i].Bytes, again[i].Bytes) {
				t.Errorf("%s/%s: seed 7 generated different bytes twice", w, a[i].Name)
			}
			if bytes.Equal(a[i].Bytes, other[i].Bytes) {
				t.Errorf("%s/%s: seeds 7 and 8 generated the same bytes", w, a[i].Name)
			}
			if _, err := spec.Parse(a[i].Bytes); err != nil {
				t.Errorf("%s/%s: %v", w, a[i].Name, err)
			}
			var x, y any
			if err := json.Unmarshal(a[i].Bytes, &x); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(other[i].Bytes, &y); err != nil {
				t.Fatal(err)
			}
			for _, path := range jsonDiff("", x, y) {
				if !strings.HasSuffix(path, "/seed") {
					t.Errorf("%s/%s: seeds 7 and 8 differ at %s, which is not a seed", w, a[i].Name, path)
				}
			}
		}
	}
}

// jsonDiff lists the paths at which two decoded JSON values differ.
func jsonDiff(path string, x, y any) []string {
	switch xv := x.(type) {
	case map[string]any:
		yv, ok := y.(map[string]any)
		if !ok || len(xv) != len(yv) {
			return []string{path}
		}
		var out []string
		for k, v := range xv {
			out = append(out, jsonDiff(path+"/"+k, v, yv[k])...)
		}
		return out
	case []any:
		yv, ok := y.([]any)
		if !ok || len(xv) != len(yv) {
			return []string{path}
		}
		var out []string
		for i := range xv {
			out = append(out, jsonDiff(path, xv[i], yv[i])...)
		}
		return out
	}
	if !reflect.DeepEqual(x, y) {
		return []string{path}
	}
	return nil
}

// TestTimedScenarioSameResults: timing Trial from outside changes no
// result, on an importance-sampled entry and on a plain one.
func TestTimedScenarioSameResults(t *testing.T) {
	docs, err := generate(wlMission, 3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := spec.Parse(docs[0].Bytes)
	if err != nil {
		t.Fatal(err)
	}
	built, err := f.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	sawWeighted := false
	for _, name := range []string{"rare-simplex-mission", "mbu-burst6"} {
		i := slices.IndexFunc(built, func(b *spec.Built) bool { return b.Entry.Name == name })
		if i < 0 {
			t.Fatalf("no entry %s", name)
		}
		b := built[i]
		weighted := false
		if ws, ok := b.Scenario.(campaign.WeightedScenario); ok {
			weighted = ws.Weighted()
		}
		sawWeighted = sawWeighted || weighted
		tr := newTracer(1, t.TempDir())
		if got := tr.wrap(b.Scenario).(campaign.WeightedScenario).Weighted(); got != weighted {
			t.Errorf("%s: wrapped Weighted() = %v, want %v", name, got, weighted)
		}
		plain, errs := runEntry(f, b, "", nil, 0)
		if len(errs) > 0 {
			t.Fatalf("%s: %v", name, errs)
		}
		timed, errs := runEntry(f, b, "", tr, 0)
		if len(errs) > 0 {
			t.Fatalf("%s: %v", name, errs)
		}
		if !reflect.DeepEqual(plain, timed) {
			t.Errorf("%s: results differ with Trial timing on", name)
		}
		if lat := tr.takeTrials(); len(lat) < timed.Trials {
			t.Errorf("%s: %d trials timed, want at least the %d merged", name, len(lat), timed.Trials)
		}
	}
	if !sawWeighted {
		t.Error("no weighted entry among the cases; the weighted path is not covered")
	}
}

// TestEveryInternalPackageHasLayer: no package of the engine can fall
// into cpu.other unnoticed.
func TestEveryInternalPackageHasLayer(t *testing.T) {
	root := filepath.Join("..", "internal")
	seen := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		hasGo := slices.ContainsFunc(entries, func(e fs.DirEntry) bool {
			n := e.Name()
			return strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go")
		})
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(filepath.Dir(root), path)
		if err != nil {
			return err
		}
		pkg := "repro/" + filepath.ToSlash(rel)
		seen++
		layer := frameLayer(pkg + ".F")
		if layer == "" || layer == "other" || !slices.Contains(cpuLayers, layer) {
			t.Errorf("package %s maps to layer %q, want a named cpu.* layer", pkg, layer)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("found no packages under ../internal")
	}
}

func TestAttribute(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "fmt.Errorf", "repro/internal/memsim.(*worker).trial"}, "fmt"},
		{[]string{"math/rand.(*rngSource).Seed", "math/rand.(*Rand).Seed", "repro/internal/memsim.(*worker).trial"}, "rng"},
		{[]string{"repro/internal/gf.(*Field).Mul", "repro/internal/rs.(*Code).EncodeTo", "repro/internal/pagesim.(*sim).scrub"}, "gf"},
		{[]string{"repro/internal/rs.(*Code).EncodeTo", "repro/internal/pagesim.(*sim).scrub"}, "rs_encode"},
		{[]string{"repro/internal/rs.(*Decoder).berlekampMassey", "repro/internal/rs.(*Decoder).decode"}, "rs_decode"},
		{[]string{"strconv.AppendFloat", "encoding/json.floatEncoder.encode"}, "json"},
		{[]string{"sort.Slice", "slices.SortFunc[go.shape.struct { repro/internal/x.a int }]", "repro/internal/campaign.Merge"}, "campaign"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestProfileLayers decodes a real CPU profile of this process.
func TestProfileLayers(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		for i := range 1000 {
			x += float64(i) * 1e-9
		}
	}
	pprof.StopCPUProfile()
	counts, err := profileLayers(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		t.Fatalf("no samples decoded from a %d-byte profile (x=%g)", buf.Len(), x)
	}
	if counts["other"] == 0 {
		t.Errorf("busy loop in package main not charged to other: %v", counts)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 60 * ms}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", Start: 35 * ms, End: 45 * ms},
	}
	st := selfTimes(spans)
	want := map[string]float64{"run": 0.050, "a": 0.030, "b": 0.020, "c": 0.010}
	for k, v := range want {
		if d := st[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("self[%s] = %g, want %g", k, st[k], v)
		}
	}
}
