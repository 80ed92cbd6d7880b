package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers is every CPU attribution bucket, in report order. Each is
// reported as the cpu.<layer> share of the traced runs' samples.
var cpuLayers = []string{
	"rng", "rs_encode", "rs_decode", "gf", "interleave", "pagesim", "memsim", "mbusim", "array",
	"fmt", "markov", "json", "csv", "gzip", "http", "fabric", "campaign", "spec", "gc", "other",
}

// packageLayers names the layer of every package a sample can be
// charged to. A package not listed here is not a layer: its frames
// fall through to their caller, as runtime frames do.
var packageLayers = map[string]string{
	"math/rand":    "rng",
	"math/rand/v2": "rng",

	"repro/internal/rs":         "rs_decode", // (*Code).Encode* is rs_encode, see frameLayer
	"repro/internal/gf":         "gf",
	"repro/internal/gfpoly":     "gf",
	"repro/internal/interleave": "interleave",
	"repro/internal/pagesim":    "pagesim",
	"repro/internal/memsim":     "memsim",
	"repro/internal/arbiter":    "memsim", // the duplex arbiter behind memsim's word pipeline
	"repro/internal/scrub":      "memsim", // scrub scheduling of the word and page simulators
	"repro/internal/mbusim":     "mbusim",
	"repro/internal/burstlen":   "mbusim", // MBU burst-length draws
	"repro/internal/hamming":    "mbusim", // comparison codes of the MBU study
	"repro/internal/tmr":        "mbusim",
	"repro/internal/array":      "array",

	// The analytic side: chains, their builders and the closed forms
	// the tradeoff and BER-curve kinds evaluate.
	"repro/internal/markov":      "markov",
	"repro/internal/simplex":     "markov",
	"repro/internal/duplex":      "markov",
	"repro/internal/reliability": "markov",
	"repro/internal/core":        "markov",
	"repro/internal/complexity":  "markov",

	"repro/internal/campaign":      "campaign",
	"repro/internal/campaign/spec": "spec",
	"repro/internal/textplot":      "spec",
	"repro/internal/expdata":       "csv", // campaign CSV and atomic artifact writes
	"repro/internal/fabric":        "fabric",

	"fmt":            "fmt",
	"errors":         "fmt",
	"encoding/json":  "json",
	"encoding/csv":   "csv",
	"compress/gzip":  "gzip",
	"compress/flate": "gzip",
	"hash/crc32":     "gzip",

	"net":               "http",
	"net/http":          "http",
	"net/http/httptest": "http",
	"net/textproto":     "http",
	"net/url":           "http",
	"mime":              "http",
	"main":              "other", // the benchmark's own wrappers and bookkeeping
}

// gcFrames mark a stack as garbage-collector work wherever they appear:
// background mark workers, mark assists and the background sweeper and
// scavenger.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// funcPackage returns the import path of a symbol name such as
// "repro/internal/rs.(*Code).EncodeTo" or "slices.SortFunc[...]".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// frameLayer returns the layer a frame belongs to, or "" when its
// package is not a layer.
func frameLayer(fn string) string {
	pkg := funcPackage(fn)
	layer := packageLayers[pkg]
	if pkg == "repro/internal/rs" && strings.HasPrefix(fn[len(pkg):], ".(*Code).Encode") {
		return "rs_encode"
	}
	return layer
}

// attribute charges one stack (leaf first) to a layer: the leaf-most
// frame whose package is a layer, "gc" for collector stacks, "other"
// when no frame is named.
func attribute(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return "gc"
		}
	}
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return "other"
}

// profileLayers decodes a gzipped pprof CPU profile and returns the
// sample count charged to each layer.
func profileLayers(data []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		var stack []string
		for _, locID := range s.locs {
			for _, fnID := range p.locations[locID] {
				stack = append(stack, p.strings[p.functions[fnID]])
			}
		}
		out[attribute(stack)] += s.count
	}
	return out, nil
}

// The subset of profile.proto (github.com/google/pprof) a CPU
// attribution needs: samples with their location stacks, locations
// with their (inlined) function lines, function names and the string
// table. The standard library writes this format but has no public
// reader.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, leaf-most first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

var errProto = errors.New("malformed protobuf")

// protoFields walks one message, calling fn with each field number,
// wire type, varint value (wire type 0) or payload (wire type 2).
func protoFields(b []byte, fn func(field int, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarints decodes a repeated integer field that may arrive
// packed (wire type 2) or one element per field (wire type 0).
func repeatedVarints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, errProto
		}
		dst, payload = append(dst, x), payload[n:]
	}
	return dst, nil
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := protoFields(b, func(field, wire int, v uint64, payload []byte) error {
		switch field {
		case 2: // Sample
			var s profSample
			var values []uint64
			err := protoFields(payload, func(f, w int, v uint64, pl []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = repeatedVarints(s.locs, w, v, pl)
				case 2:
					values, err = repeatedVarints(values, w, v, pl)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(payload, func(f, w int, v uint64, pl []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(pl, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(payload, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(payload))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}
