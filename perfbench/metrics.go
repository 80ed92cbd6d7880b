package main

import (
	"fmt"
	"math"
	"sort"
)

// endToEndNames are the metrics a user of the campaign engine sees,
// measured on untraced runs.
var endToEndNames = []string{"setup_s", "wall_s", "trials_per_s", "peak_rss_mb", "alloc_mb", "job_latency_s"}

// layerUnits gives the unit of every per-layer metric except the
// cpu.* shares, which are all ratios.
var layerUnits = map[string]string{
	"spec.build_s":     "s",
	"spec.write_s":     "s",
	"spec.artifact_mb": "MB",

	"campaign.plan_s":            "s",
	"campaign.execute_s":         "s",
	"campaign.merge_s":           "s",
	"campaign.worker_util":       "ratio",
	"campaign.useful_trial_frac": "ratio",
	"campaign.partial_mb":        "MB",
	"campaign.partial_gz_mb":     "MB",

	"memsim.trial_us_p50":  "us",
	"memsim.trial_us_p99":  "us",
	"mbusim.trial_us_p50":  "us",
	"array.trial_us_p50":   "us",
	"pagesim.trial_us_p50": "us",
	"pagesim.trial_us_p99": "us",

	"fabric.lease_ms_p50":       "ms",
	"fabric.lease_ms_p99":       "ms",
	"fabric.upload_ms_p50":      "ms",
	"fabric.upload_ms_p99":      "ms",
	"fabric.upload_mb":          "MB",
	"fabric.requests":           "count",
	"fabric.no_work_replies":    "count",
	"fabric.executor_idle_frac": "ratio",
	"fabric.merge_tail_s":       "s",
	"fabric.steals":             "count",
	"fabric.rejected":           "count",
	"fabric.overhead_ratio":     "ratio",
	"trace.overhead_frac":       "ratio",
}

// printOnly marks the per-layer timings that read exactly 0 on every
// run of a workload that bypasses their layer (artifact writing on
// memsim-mission, per-trial latencies and the fabric's request timings
// outside their workloads). They are printed with their sample counts
// but left out of the summary line, whose metrics must be measured
// values on every workload.
var printOnly = map[string]bool{
	"spec.write_s":         true,
	"memsim.trial_us_p50":  true,
	"memsim.trial_us_p99":  true,
	"mbusim.trial_us_p50":  true,
	"array.trial_us_p50":   true,
	"pagesim.trial_us_p50": true,
	"pagesim.trial_us_p99": true,
	"fabric.lease_ms_p50":  true,
	"fabric.lease_ms_p99":  true,
	"fabric.upload_ms_p50": true,
	"fabric.upload_ms_p99": true,
	"fabric.merge_tail_s":  true,
}

// perLayerNames lists every per-layer metric in report order.
func perLayerNames() []string {
	var names []string
	for name := range layerUnits {
		names = append(names, name)
	}
	for _, l := range cpuLayers {
		names = append(names, "cpu."+l)
	}
	sort.Strings(names)
	return names
}

// stat is one metric over a workload's runs.
type stat struct {
	median, q1, q3 float64
	n              int
	unit           string
}

func (s stat) print(name string) {
	fmt.Printf("  %-28s %14.6g  q1=%-12.6g q3=%-12.6g %-8s n=%d\n", name, s.median, s.q1, s.q3, s.unit, s.n)
}

func statOf(values []float64, unit string) stat {
	if len(values) == 0 {
		return stat{unit: unit}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return stat{median: quantile(s, 0.5), q1: quantile(s, 0.25), q3: quantile(s, 0.75), n: len(s), unit: unit}
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// endToEnd summarizes the untraced runs.
func endToEnd(runs []*childRun) map[string]stat {
	cols := make(map[string][]float64)
	for _, r := range runs {
		rep := r.rep
		cols["setup_s"] = append(cols["setup_s"], rep.SetupSamples...)
		cols["wall_s"] = append(cols["wall_s"], rep.Wall)
		cols["trials_per_s"] = append(cols["trials_per_s"], float64(rep.Trials)/(rep.Wall-rep.Setup))
		cols["peak_rss_mb"] = append(cols["peak_rss_mb"], r.rssMB)
		cols["alloc_mb"] = append(cols["alloc_mb"], float64(rep.AllocBytes)/1e6)
		cols["job_latency_s"] = append(cols["job_latency_s"], rep.JobLatency)
	}
	units := map[string]string{"setup_s": "s", "wall_s": "s", "trials_per_s": "trials/s",
		"peak_rss_mb": "MB", "alloc_mb": "MB", "job_latency_s": "s"}
	out := make(map[string]stat)
	for _, name := range endToEndNames {
		out[name] = statOf(cols[name], units[name])
	}
	return out
}

// perLayer summarizes the traced runs: the median of each layer metric
// over the runs that report it, CPU shares over all their samples, and
// the tracing and fabric overheads against the untraced runs and the
// in-process reference.
func perLayer(traced []*childRun, e2e map[string]stat, ref *childRun) map[string]stat {
	cols := make(map[string][]float64)
	cpu := make(map[string]int64)
	var samples int64
	var walls []float64
	for _, r := range traced {
		for k, v := range r.rep.Layers {
			cols[k] = append(cols[k], v)
		}
		for k, v := range r.rep.CPU {
			cpu[k] += v
			samples += v
		}
		walls = append(walls, r.rep.Wall)
	}
	out := make(map[string]stat)
	for name, unit := range layerUnits {
		out[name] = statOf(cols[name], unit)
	}
	for _, l := range cpuLayers {
		share := 0.0
		if samples > 0 {
			share = float64(cpu[l]) / float64(samples)
		}
		out["cpu."+l] = stat{median: share, q1: share, q3: share, n: int(samples), unit: "ratio"}
	}
	tw := statOf(walls, "")
	if base := e2e["wall_s"].median; base > 0 && tw.n > 0 {
		out["trace.overhead_frac"] = stat{median: tw.median/base - 1, q1: tw.q1/base - 1, q3: tw.q3/base - 1, n: tw.n, unit: "ratio"}
	}
	if ref != nil && ref.rep.Wall > 0 {
		w := e2e["wall_s"]
		out["fabric.overhead_ratio"] = stat{median: w.median / ref.rep.Wall, q1: w.q1 / ref.rep.Wall, q3: w.q3 / ref.rep.Wall, n: w.n, unit: "ratio"}
	}
	return out
}
