// Command perfbench is the end-to-end campaign benchmark. It generates
// each workload's spec bytes from a seed, feeds them to the campaign
// engine (in process, or through the fabric job service) via the same
// public calls cmd/campaign makes, verifies every result and reports
// end-to-end metrics, or with --trace 1 a per-layer breakdown.
//
// Usage (from the repository root; run.sh builds it first):
//
//	bash perfbench/run.sh --workload memsim-mission --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20
//
// Every measured run is its own process, so runs neither inherit a warm
// heap nor share one and the peak RSS is the run's own. The parent
// starts runs until --seconds have passed and reports medians. It
// prints one line per metric (median, quartiles, unit, sample count)
// and, as its last line, the JSON summary
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// childTimeout bounds one measured process; a run normally takes a
// few seconds.
const childTimeout = 60 * time.Second

// minRuns is the fewest measured runs of each kind a workload makes,
// however short --seconds is.
const minRuns = 3

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames)+" or all")
		seed     = flag.Int64("seed", 1, "workload seed: changes only the trial streams")
		seconds  = flag.Float64("seconds", 10, "measure for this long, starting new runs until it has passed")
		trace    = flag.Int("trace", 0, "1 = report per-layer metrics from traced runs (alternated with untraced ones)")
		workdir  = flag.String("workdir", filepath.Join(".bench_build", "runs"), "directory for the runs' outputs and kept spans")
		child    = flag.String("child", "", "run one measurement in this process and print its report: timed, traced or reference")
		runDir   = flag.String("run-dir", "", "with -child: the run's output directory")
		runID    = flag.Int("run-id", 0, "with -child: the run's index, stamped into its spans")
	)
	flag.Parse()
	if *child != "" {
		if err := childMain(*child, *workload, *seed, *runDir, *runID); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	for _, name := range names {
		if _, err := generate(name, *seed); err != nil {
			fail(err)
		}
	}
	self, err := os.Executable()
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fail(err)
	}
	var total summary
	total.Correct = true
	total.Metrics = make(map[string]metric)
	for _, name := range names {
		b := &bench{self: self, workload: name, seed: *seed, traced: *trace == 1, workdir: *workdir}
		s := b.run(time.Duration(*seconds * float64(time.Second)))
		if len(names) == 1 {
			total = s
			break
		}
		total.Correct = total.Correct && s.Correct
		total.Attempted += s.Attempted
		total.Failed += s.Failed
		for k, v := range s.Metrics {
			total.Metrics[name+"/"+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}

// childMain is one measured process: it runs the workload once and
// prints its report as JSON.
func childMain(mode, workload string, seed int64, dir string, run int) error {
	docs, err := generate(workload, seed)
	if err != nil {
		return err
	}
	var tr *tracer
	var rep *report
	switch mode {
	case "timed":
	case "traced":
		tr = newTracer(run, dir)
	case "reference":
		// The untimed in-process run of the fabric documents, whose
		// result trees the service's must match byte for byte.
	default:
		return fmt.Errorf("unknown -child mode %q", mode)
	}
	if workload == wlFabric && mode != "reference" {
		rep, err = runFabric(docs, dir, tr)
	} else {
		rep, err = runInProcess(docs, dir, tr)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the benchmark's last output line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench runs one workload's measured processes.
type bench struct {
	self     string
	workload string
	seed     int64
	traced   bool
	workdir  string
	runs     int
}

// childRun is one finished measured process.
type childRun struct {
	rep   *report
	rssMB float64
}

// spawn runs one measured process and collects its report and peak RSS.
func (b *bench) spawn(mode string) (*childRun, error) {
	b.runs++
	dir, err := os.MkdirTemp(b.workdir, fmt.Sprintf("%s-%s-", b.workload, mode))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.self, "-child", mode, "-workload", b.workload,
		"-seed", strconv.FormatInt(b.seed, 10), "-run-dir", dir, "-run-id", strconv.Itoa(b.runs))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s run %d (%s): %w", b.workload, b.runs, mode, err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("%s run %d (%s): bad report: %w", b.workload, b.runs, mode, err)
	}
	if mode == "traced" {
		// Keep the run's spans; everything else in its directory goes.
		traces := filepath.Join(b.workdir, "traces")
		if err := os.MkdirAll(traces, 0o755); err != nil {
			return nil, err
		}
		name := fmt.Sprintf("%s-seed%d-run%d.jsonl", b.workload, b.seed, b.runs)
		if err := os.Rename(filepath.Join(dir, spansFile), filepath.Join(traces, name)); err != nil {
			return nil, err
		}
	}
	rss := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &childRun{rep: &rep, rssMB: rss}, nil
}

// run measures the workload for at least d and summarizes it.
func (b *bench) run(d time.Duration) summary {
	s := summary{Correct: true, Metrics: make(map[string]metric)}
	// A run that crashes, hangs or reports garbage counts as one failed
	// operation; the measurement goes on without it.
	lost := func(err error) {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %v\n", err)
		s.Attempted++
		s.Failed++
	}
	var ref *childRun
	if b.workload == wlFabric {
		r, err := b.spawn("reference")
		if err != nil {
			lost(err)
		}
		ref = r
	}
	var timed, traced []*childRun
	start := time.Now()
	for i := 0; ; i++ {
		enough := len(timed) >= minRuns && (!b.traced || len(traced) >= minRuns)
		if time.Since(start) >= d && (enough || s.Failed >= minRuns) {
			break
		}
		mode := "timed"
		if b.traced && i%2 == 1 {
			mode = "traced"
		}
		r, err := b.spawn(mode)
		switch {
		case err != nil:
			lost(err)
		case mode == "traced":
			traced = append(traced, r)
		default:
			timed = append(timed, r)
		}
	}

	// Correctness: every operation's own checks, digests equal to the
	// invocation's first run, fabric trees equal to the reference.
	all := append(append([]*childRun(nil), timed...), traced...)
	for _, r := range all {
		s.Attempted += r.rep.Ops
		failed := len(r.rep.Errors)
		for _, e := range r.rep.Errors {
			fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED: %s\n", b.workload, e)
		}
		if first := all[0].rep.Digest; r.rep.Digest != first {
			fmt.Fprintf(os.Stderr, "perfbench: %s: result digest %s differs from the first run's %s\n", b.workload, r.rep.Digest, first)
			failed = r.rep.Ops
		}
		if ref != nil {
			for name, want := range ref.rep.Trees {
				if got := r.rep.Trees[name]; got != want {
					fmt.Fprintf(os.Stderr, "perfbench: %s: %s result tree %s differs from the in-process reference %s\n", b.workload, name, got, want)
					failed = r.rep.Ops
				}
			}
		}
		s.Failed += min(failed, r.rep.Ops)
	}
	if ref != nil && len(ref.rep.Errors) > 0 {
		for _, e := range ref.rep.Errors {
			fmt.Fprintf(os.Stderr, "perfbench: %s: reference FAILED: %s\n", b.workload, e)
		}
		s.Correct = false
	}
	if b.workload == wlFabric && ref == nil {
		s.Correct = false // nothing to compare the result trees with
	}
	s.Correct = s.Correct && s.Failed == 0

	fmt.Printf("perfbench workload=%s seed=%d runs=%d traced=%d elapsed=%.1fs correct=%v attempted=%d failed=%d failed_frac=%.4g\n",
		b.workload, b.seed, len(timed), len(traced), time.Since(start).Seconds(), s.Correct, s.Attempted, s.Failed,
		float64(s.Failed)/float64(max(s.Attempted, 1)))

	e2e := endToEnd(timed)
	for _, name := range endToEndNames {
		e2e[name].print(name)
		if !b.traced {
			s.Metrics[name] = metric{Value: e2e[name].median, Unit: e2e[name].unit}
		}
	}
	if b.traced {
		fmt.Printf("  spans of the traced runs: %s\n", filepath.Join(b.workdir, "traces", b.workload+"-seed"+strconv.FormatInt(b.seed, 10)+"-run*.jsonl"))
		layers := perLayer(traced, e2e, ref)
		for _, name := range perLayerNames() {
			layers[name].print(name)
			if !printOnly[name] {
				s.Metrics[name] = metric{Value: layers[name].median, Unit: layers[name].unit}
			}
		}
	}
	return s
}
