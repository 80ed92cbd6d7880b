package main

import (
	"fmt"
	"sort"
)

// Workload names, as passed to --workload.
const (
	wlMission = "memsim-mission"
	wlPages   = "page-grid"
	wlFabric  = "fabric-jobs"
)

// workloadNames lists every workload in the order --workload all runs them.
var workloadNames = []string{wlMission, wlPages, wlFabric}

// specDoc is one generated campaign spec: the bytes the program
// receives, plus whether its result artifacts are written.
type specDoc struct {
	Name      string
	Bytes     []byte
	Artifacts bool
}

// missionSpec is the word-level mission mix. It is chosen because
// per-trial RNG reseeding, memsim, per-word decode, the uncorrectable
// error formatting and the analytic chain solve (at build time, for
// the auto-tilted entry) do most of its work, while pagesim, the batch
// decoder, scrub re-encoding and artifact writing do none. Entries:
//   - examples/campaign/spec.json in full (BER curve, duplex SSMM
//     mission, MBU burst comparison, design-space sweep);
//   - nightly.json's unscrubbed simplex reference, where most words
//     end uncorrectable;
//   - rare.json's auto-tilted simplex mission with its relative-error
//     stop, whose 4-sigma chain gate runs at merge time;
//   - matrix.json's whole-memory cross-validation. Its built-in gate is
//     the 95% Wilson band, which a correct program fails on one seed in
//     twenty, so the spec turns it off and the benchmark re-checks the
//     same analytic value at 5 sigma (see arrayXValZ).
//
// Expectation bands are the shipped ones: ssmm-mission and the simplex
// reference are +-5 sigma at 10000 trials, the rare band is wider than
// 6 relative standard errors at the stop rule's precision.
//
// Verbs: %[1]d file seed, %[2]d..%[6]d per-entry seeds.
const missionSpec = `{
  "seed": %[1]d,
  "scenarios": [
    {"name": "ber-transient", "kind": "bercurve",
     "params": {"arrangement": "duplex", "n": 18, "k": 16, "seu_per_bit_day": 1.7e-5,
                "scrub_seconds": 3600, "hours": 48}},
    {"name": "ssmm-mission", "kind": "memsim",
     "params": {"duplex": true, "n": 18, "k": 16, "lambda_bit_per_hour": 6e-4,
                "lambda_symbol_per_hour": 2e-4, "scrub_period_hours": 4,
                "exponential_scrub": true, "horizon_hours": 48, "trials": 10000, "seed": %[2]d},
     "expect": [{"counter": "capability_exceeded", "min_fraction": 0.767, "max_fraction": 0.808}]},
    {"name": "mbu-burst6", "kind": "mbusim",
     "params": {"events_per_kilobit": 4, "burst_bits": 6, "trials": 4000, "seed": %[3]d}},
    {"name": "design-space", "kind": "tradeoff",
     "params": {"seu_per_bit_day": 1.7e-5, "perm_per_symbol_day": 1e-7, "scrub_seconds": 3600,
                "hours": 48, "max_redundancy": 8, "duplex_max_redundancy": 4}},
    {"name": "simplex-reference", "kind": "memsim",
     "params": {"duplex": false, "n": 18, "k": 16, "lambda_bit_per_hour": 6e-4,
                "lambda_symbol_per_hour": 2e-4, "horizon_hours": 48, "trials": 10000, "seed": %[4]d},
     "expect": [{"counter": "capability_exceeded", "min_fraction": 0.904, "max_fraction": 0.932}]},
    {"name": "rare-simplex-mission", "kind": "memsim",
     "params": {"duplex": false, "n": 18, "k": 16, "lambda_bit_per_hour": 1.7e-8,
                "lambda_symbol_per_hour": 8.5e-10, "scrub_period_hours": 4,
                "exponential_scrub": true, "horizon_hours": 48, "trials": 50000, "seed": %[5]d},
     "sampling": {"method": "auto"},
     "stop": {"counter": "capability_exceeded", "rel_half_width": 0.1, "min_trials": 4000},
     "expect": [{"counter": "capability_exceeded", "min_fraction": 7e-10, "max_fraction": 1.5e-9}]},
    {"name": "whole-memory-xval", "kind": "array",
     "params": {"data_bytes": 1048576, "seu_per_bit_day": 1.44e-2, "perm_per_symbol_day": 4.8e-3,
                "hours": 48, "trials": 4000, "seed": %[6]d, "validate_analytic": false}}
  ]
}
`

// pagesSpec is the page-level grid: detection.json's grid (detection
// policy x scrub period x depth) plus matrix.json's page-grid (n x
// depth x scrub period, with bursts), artifacts written. It is chosen
// because pagesim's scrub re-encode, interleaved batch decoding (clean
// screens next to erasure-heavy words) and JSON/CSV artifact writing
// dominate it, while memsim and uncorrectable-error formatting are
// nearly absent. The single-burst band is the shipped structural
// guarantee (an interleaved single burst is always corrected).
//
// Verbs: %[1]d file seed, %[2]d..%[3]d per-entry seeds.
const pagesSpec = `{
  "seed": %[1]d,
  "scenarios": [
    {"name": "detection-grid", "kind": "interleave",
     "params": {"lambda_bit_per_hour": 1e-5, "lambda_column_per_hour": 1.5e-3,
                "detection_latency_hours": 12, "horizon_hours": 48, "trials": 1500, "seed": %[2]d},
     "matrix": {"detection": ["immediate", "scrub", "latency"], "scrub_period_hours": [2, 8],
                "depth": [2, 4]}},
    {"name": "page-grid", "kind": "interleave",
     "params": {"lambda_bit_per_hour": 2e-5, "burst_per_kilobit_hour": 0.05, "burst_bits": 9,
                "lambda_column_per_hour": 5e-5, "horizon_hours": 48, "trials": 2000, "seed": %[3]d},
     "matrix": {"n": [18, 20], "depth": [2, 4], "scrub_period_hours": [1, 4, 12]},
     "expect": [{"counter": "single_burst_losses", "max_fraction": 0}]}
  ]
}
`

// generate maps (workload, seed) to the spec documents the program
// receives. The seed changes only the "seed" fields, so every other
// parameter — and with it the work a run does, up to the trial streams
// and the rare entry's stopping point — is the same on every seed.
//
// fabric-jobs submits exactly the two in-process workloads' documents,
// so its result trees can be compared byte for byte with an in-process
// run of the same bytes. It is chosen because it runs the same campaign
// layers through the job service: partials are serialized, gzip
// uploaded, validated, merged from disk and written server-side, and
// early-stop cancellation runs across slices, so HTTP, gzip and
// scheduling costs show there and nowhere else.
func generate(workload string, seed int64) ([]specDoc, error) {
	mission := specDoc{Name: "mission", Bytes: fmt.Appendf(nil, missionSpec,
		derivedSeed(seed, 0), derivedSeed(seed, 1), derivedSeed(seed, 2),
		derivedSeed(seed, 3), derivedSeed(seed, 4), derivedSeed(seed, 5))}
	pages := specDoc{Name: "pages", Artifacts: true, Bytes: fmt.Appendf(nil, pagesSpec,
		derivedSeed(seed, 10), derivedSeed(seed, 11), derivedSeed(seed, 12))}
	switch workload {
	case wlMission:
		return []specDoc{mission}, nil
	case wlPages:
		return []specDoc{pages}, nil
	case wlFabric:
		// Server-side merges always write artifacts.
		mission.Artifacts = true
		return []specDoc{mission, pages}, nil
	}
	known := append([]string(nil), workloadNames...)
	sort.Strings(known)
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, known)
}

// derivedSeed gives entry slot i of benchmark seed s its own RNG base
// (a splitmix64 step), kept below 2^31 so every JSON reader holds it
// exactly.
func derivedSeed(s int64, slot int) int64 {
	z := uint64(s)*0x9E3779B97F4A7C15 + uint64(slot+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 33)
}
