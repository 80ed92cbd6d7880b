package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaign/spec"
	"repro/internal/fabric"
)

// report is what one measured process sends back to the parent.
type report struct {
	Setup float64 `json:"setup_s"`
	// SetupSamples is Setup followed by setupRepeats more set-ups of the
	// same documents, timed after the measured run.
	SetupSamples []float64 `json:"setup_samples_s"`
	Wall         float64   `json:"wall_s"`
	Trials       int64     `json:"trials"` // merged trials
	AllocBytes   uint64    `json:"alloc_bytes"`
	JobLatency   float64   `json:"job_latency_s"`
	Ops          int       `json:"ops"`
	Errors       []string  `json:"errors,omitempty"` // one line per failed operation
	Digest       string    `json:"digest"`
	// Trees holds, per spec document that wrote artifacts, the digest of
	// its result tree.
	Trees  map[string]string  `json:"trees,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
	CPU    map[string]int64   `json:"cpu,omitempty"`
}

// setupRepeats is how many extra set-ups each run times after its
// measured part: one set-up takes milliseconds, too short for a steady
// median over a few runs alone.
const setupRepeats = 9

// arrayXValZ is the width, in standard errors, of the benchmark's own
// whole-memory cross-validation gate (see missionSpec).
const arrayXValZ = 5

// jobTimeout bounds how long a fabric run waits for a job, so a hung
// service fails the run instead of the benchmark.
const jobTimeout = 45 * time.Second

// meter measures one run: wall time, heap bytes allocated and, when
// traced, the CPU profile.
type meter struct {
	start  time.Time
	alloc0 uint64
	prof   *os.File
}

func startMeter(profPath string) (*meter, error) {
	m := &meter{}
	if profPath != "" {
		f, err := os.Create(profPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		m.prof = f
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.alloc0 = ms.TotalAlloc
	m.start = time.Now()
	return m, nil
}

func (m *meter) elapsed() float64 { return time.Since(m.start).Seconds() }

// stop ends the measurement and returns wall seconds and bytes
// allocated.
func (m *meter) stop() (float64, uint64, error) {
	wall := m.elapsed()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if m.prof != nil {
		pprof.StopCPUProfile()
		if err := m.prof.Close(); err != nil {
			return 0, 0, err
		}
	}
	return wall, ms.TotalAlloc - m.alloc0, nil
}

// loaded is one parsed and built spec document.
type loaded struct {
	doc   specDoc
	file  *spec.File
	built []*spec.Built
}

// runInProcess feeds the documents to the engine through the calls
// cmd/campaign makes: Parse, BuildAll, then per entry NewPlan, Execute,
// Merge, CheckExpectations and WriteArtifacts. tr is nil for an
// untraced run.
func runInProcess(docs []specDoc, dir string, tr *tracer) (*report, error) {
	m, err := startMeter(tr.profilePath())
	if err != nil {
		return nil, err
	}
	rep := &report{Trees: make(map[string]string)}
	root := tr.begin("run", 0)
	var files []loaded
	for _, doc := range docs {
		sp := tr.begin("spec.parse", root)
		f, err := spec.Parse(doc.Bytes)
		tr.end(sp)
		var built []*spec.Built
		if err == nil {
			sp = tr.begin("spec.build", root)
			built, err = f.BuildAll()
			tr.end(sp)
		}
		if err != nil {
			rep.Ops++
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", doc.Name, err))
			continue
		}
		files = append(files, loaded{doc, f, built})
	}
	rep.Setup = m.elapsed()

	type outcome struct {
		ld   loaded
		b    *spec.Built
		res  *campaign.Result
		errs []error
		lat  []time.Duration
	}
	var outs []outcome
	for _, ld := range files {
		outDir := ""
		if ld.doc.Artifacts {
			outDir = filepath.Join(dir, "results", ld.doc.Name)
		}
		for _, b := range ld.built {
			entry := tr.begin("entry", root)
			res, errs := runEntry(ld.file, b, outDir, tr, entry)
			tr.end(entry)
			outs = append(outs, outcome{ld, b, res, errs, tr.takeTrials()})
		}
	}
	tr.end(root)
	wall, alloc, err := m.stop()
	if err != nil {
		return nil, err
	}
	rep.Wall, rep.AllocBytes, rep.JobLatency = wall, alloc, wall
	rep.SetupSamples = append(rep.SetupSamples, rep.Setup)
	for range setupRepeats {
		start := time.Now()
		for _, ld := range files {
			f, err := spec.Parse(ld.doc.Bytes)
			if err != nil {
				return nil, err
			}
			if _, err := f.BuildAll(); err != nil {
				return nil, err
			}
		}
		rep.SetupSamples = append(rep.SetupSamples, time.Since(start).Seconds())
	}

	h := sha256.New()
	lat := make(map[string][]time.Duration)
	var executed int
	var busy time.Duration
	for _, o := range outs {
		rep.Ops++
		if o.res != nil {
			rep.Trials += int64(o.res.Trials)
			data, err := json.Marshal(o.res)
			if err != nil {
				return nil, err
			}
			h.Write(data)
			if err := benchCheck(o.ld.file, o.b, o.res); err != nil {
				o.errs = append(o.errs, err)
			}
		}
		if len(o.errs) > 0 {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", o.b.Entry.Name, errors.Join(o.errs...)))
		}
		kind := trialKind(o.b.Entry.Kind)
		lat[kind] = append(lat[kind], o.lat...)
		executed += len(o.lat)
		for _, d := range o.lat {
			busy += d
		}
	}
	var artifactBytes int64
	for _, ld := range files {
		if ld.doc.Artifacts {
			d, n, err := treeDigest(filepath.Join(dir, "results", ld.doc.Name))
			if err != nil {
				return nil, err
			}
			rep.Trees[ld.doc.Name] = d
			h.Write([]byte(d))
			artifactBytes += n
		}
	}
	rep.Digest = hex.EncodeToString(h.Sum(nil))
	if tr == nil {
		return rep, nil
	}

	st := selfTimes(tr.spans)
	workers := runtime.GOMAXPROCS(0)
	rep.Layers = map[string]float64{
		"spec.build_s":       st["spec.parse"] + st["spec.build"],
		"spec.write_s":       st["spec.write"],
		"spec.artifact_mb":   float64(artifactBytes) / 1e6,
		"campaign.plan_s":    st["campaign.plan"],
		"campaign.execute_s": st["campaign.execute"],
		"campaign.merge_s":   st["campaign.merge"],
	}
	if ex := st["campaign.execute"]; ex > 0 {
		rep.Layers["campaign.worker_util"] = busy.Seconds() / (ex * float64(workers))
	}
	if executed > 0 {
		rep.Layers["campaign.useful_trial_frac"] = float64(rep.Trials) / float64(executed)
	}
	for kind, ds := range lat {
		if kind == "" || len(ds) == 0 {
			continue
		}
		rep.Layers[kind+".trial_us_p50"] = durationQuantile(ds, 0.50)
		rep.Layers[kind+".trial_us_p99"] = durationQuantile(ds, 0.99)
	}
	return rep, tr.finish(rep)
}

// runEntry runs one built entry the way campaign.Run composes the
// engine, with a span around each layer call.
func runEntry(f *spec.File, b *spec.Built, outDir string, tr *tracer, parent int) (*campaign.Result, []error) {
	cfg := b.EngineConfig(f)
	scn := tr.wrap(b.Scenario)
	sp := tr.begin("campaign.plan", parent)
	plan, err := campaign.NewPlan(scn, cfg.ShardSize, campaign.Whole)
	tr.end(sp)
	if err != nil {
		return nil, []error{err}
	}
	plan.ParamsDigest = cfg.ParamsDigest
	sp = tr.begin("campaign.execute", parent)
	partial, err := campaign.Execute(scn, plan, campaign.ExecConfig{
		Workers:    cfg.Workers,
		Artifact:   cfg.Checkpoint,
		FlushEvery: cfg.CheckpointEvery,
		Stop:       cfg.Stop,
	})
	tr.end(sp)
	if err != nil {
		return nil, []error{err}
	}
	sp = tr.begin("campaign.merge", parent)
	res, err := campaign.Merge([]*campaign.Partial{partial}, campaign.MergeConfig{Stop: cfg.Stop, ParamsDigest: cfg.ParamsDigest})
	tr.end(sp)
	if cerr := partial.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, []error{err}
	}
	sp = tr.begin("spec.check", parent)
	errs := b.CheckExpectations(res)
	tr.end(sp)
	if outDir != "" {
		sp = tr.begin("spec.write", parent)
		if err := b.WriteArtifacts(outDir, res); err != nil {
			errs = append(errs, err)
		}
		tr.end(sp)
	}
	return res, errs
}

// benchCheck is the benchmark's own gate on top of the spec's: the
// whole-memory cross-validation at arrayXValZ standard errors.
func benchCheck(f *spec.File, b *spec.Built, res *campaign.Result) error {
	if b.Entry.Kind != "array" {
		return nil
	}
	var p spec.ArrayParams
	if err := json.Unmarshal(b.Entry.Params, &p); err != nil {
		return err
	}
	cfg, err := p.SimConfig(f.Seed)
	if err != nil {
		return err
	}
	v, err := cfg.CrossValidate(res, arrayXValZ)
	if err != nil {
		return err
	}
	return v.Check()
}

// trialKind names the simulator whose per-trial latency an entry kind
// reports ("" for the analytic kinds).
func trialKind(kind string) string {
	switch kind {
	case "memsim", "mbusim", "array":
		return kind
	case "interleave":
		return "pagesim"
	}
	return ""
}

// durationQuantile returns the q-quantile of ds in microseconds.
func durationQuantile(ds []time.Duration, q float64) float64 {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = float64(d) / 1e3
	}
	sort.Float64s(s)
	return quantile(s, q)
}

// runFabric submits the documents as jobs to an in-process job service
// and drains them with GOMAXPROCS single-worker executors. Setup is
// registry and server start plus the submits; wall is the makespan to
// the last job's JobDone.
func runFabric(docs []specDoc, dir string, tr *tracer) (*report, error) {
	m, err := startMeter(tr.profilePath())
	if err != nil {
		return nil, err
	}
	root := tr.begin("run", 0)
	var serverLog, submitLog httpLog
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = func(h http.Handler) http.Handler { return serverHandler(h, &serverLog) }
	}
	clientFor := func(l *httpLog) *http.Client {
		if tr == nil {
			return nil // the executor's and SubmitJob's own defaults
		}
		return &http.Client{Timeout: 5 * time.Minute, Transport: &clientTransport{base: http.DefaultTransport, log: l}}
	}
	svc, err := startService(docs, filepath.Join(dir, "work"), wrap, clientFor(&submitLog), tr, root)
	if err != nil {
		return nil, err
	}
	defer svc.srv.Close()
	reg, ids, submitted := svc.reg, svc.ids, svc.submitted
	setup := m.elapsed()
	execStart := time.Now()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	executors := runtime.GOMAXPROCS(0)
	execLogs := make([]httpLog, executors)
	execErrs := make([]error, executors)
	var wg sync.WaitGroup
	for i := range executors {
		wg.Add(1)
		go func() {
			defer wg.Done()
			execErrs[i] = fabric.RunExecutor(ctx, fabric.ExecutorConfig{
				URL:     svc.srv.URL,
				Name:    fmt.Sprintf("exec-%d", i),
				Workers: 1,
				Client:  clientFor(&execLogs[i]),
				Log:     quietLog,
			})
		}()
	}
	doneAt := make([]time.Time, len(ids))
	jobErrs := make([][]string, len(ids))
	timeout := time.After(jobTimeout)
	for i, id := range ids {
		ch, ok := reg.JobDone(id)
		if !ok {
			return nil, fmt.Errorf("job %s vanished", id)
		}
		select {
		case <-ch:
			doneAt[i] = time.Now()
		case <-timeout:
			jobErrs[i] = append(jobErrs[i], fmt.Sprintf("not done after %s", jobTimeout))
		}
	}
	tr.end(root)
	wall, alloc, err := m.stop()
	if err != nil {
		return nil, err
	}
	cancel()
	wg.Wait()

	rep := &report{Setup: setup, Wall: wall, AllocBytes: alloc, Ops: len(ids), Trees: make(map[string]string)}
	rep.SetupSamples = append(rep.SetupSamples, setup)
	for i := range setupRepeats {
		start := time.Now()
		again, err := startService(docs, filepath.Join(dir, fmt.Sprintf("setup-%d", i)), nil, nil, nil, 0)
		if err != nil {
			return nil, err
		}
		rep.SetupSamples = append(rep.SetupSamples, time.Since(start).Seconds())
		again.srv.Close()
	}
	status := reg.Status()
	for _, err := range execErrs {
		if err != nil && !errors.Is(err, context.Canceled) {
			for i := range jobErrs {
				jobErrs[i] = append(jobErrs[i], "executor: "+err.Error())
			}
		}
	}
	if status.Rejected > 0 {
		for i := range jobErrs {
			jobErrs[i] = append(jobErrs[i], fmt.Sprintf("%d uploads rejected", status.Rejected))
		}
	}
	h := sha256.New()
	var latency float64
	var uploadedTrials int
	var artifactBytes int64
	jobs := make([]*fabric.JobStatus, len(ids))
	for i, id := range ids {
		st, ok := reg.Job(id)
		if !ok {
			return nil, fmt.Errorf("job %s vanished", id)
		}
		jobs[i] = st
		if st.State != fabric.JobDone {
			jobErrs[i] = append(jobErrs[i], fmt.Sprintf("state %s: %s", st.State, st.Error))
		}
		if st.Steals > 0 {
			jobErrs[i] = append(jobErrs[i], fmt.Sprintf("%d leases stolen", st.Steals))
		}
		if !doneAt[i].IsZero() {
			latency += doneAt[i].Sub(submitted[i]).Seconds()
		}
		uploadedTrials += st.DoneTrials
		if st.OutDir != "" {
			d, n, err := treeDigest(st.OutDir)
			if err != nil {
				return nil, err
			}
			rep.Trees[docs[i].Name] = d
			h.Write([]byte(d))
			artifactBytes += n
			trials, err := resultTrials(st.OutDir)
			if err != nil {
				return nil, err
			}
			rep.Trials += trials
		}
		if len(jobErrs[i]) > 0 {
			rep.Errors = append(rep.Errors, fmt.Sprintf("job %s (%s): %s", id, docs[i].Name, strings.Join(jobErrs[i], "; ")))
		}
	}
	rep.JobLatency = latency / float64(len(ids))
	rep.Digest = hex.EncodeToString(h.Sum(nil))
	if tr == nil {
		return rep, nil
	}

	lastDone := execStart
	for _, t := range doneAt {
		if t.After(lastDone) {
			lastDone = t
		}
	}
	rep.Layers = fabricLayers(serverLog.snapshot(), execLogs, execStart, lastDone)
	rep.Layers["fabric.steals"] = float64(status.Steals)
	rep.Layers["fabric.rejected"] = float64(status.Rejected)
	rep.Layers["spec.artifact_mb"] = float64(artifactBytes) / 1e6
	if uploadedTrials > 0 {
		rep.Layers["campaign.useful_trial_frac"] = float64(rep.Trials) / float64(uploadedTrials)
	}
	var raw, gz int64
	for _, st := range jobs {
		r, g, err := partialSizes(st.Dir, st.OutDir)
		if err != nil {
			return nil, err
		}
		raw, gz = raw+r, gz+g
	}
	rep.Layers["campaign.partial_mb"] = float64(raw) / 1e6
	rep.Layers["campaign.partial_gz_mb"] = float64(gz) / 1e6
	sub := submitLog.snapshot()
	var submitTime float64
	for _, e := range sub {
		submitTime += e.End.Sub(e.Start).Seconds()
	}
	rep.Layers["spec.build_s"] = submitTime
	if err := replayMerge(docs, jobs, dir, tr); err != nil {
		return nil, err
	}
	st := selfTimes(tr.spans)
	rep.Layers["campaign.plan_s"] = st["campaign.plan"]
	rep.Layers["campaign.merge_s"] = st["campaign.merge"]
	rep.Layers["spec.write_s"] = st["spec.write"]
	return rep, tr.finish(rep)
}

// quietLog drops the service's and executors' progress lines.
var quietLog = log.New(io.Discard, "", 0)

// service is one in-process job service with the workload's jobs
// submitted.
type service struct {
	reg       *fabric.Registry
	srv       *httptest.Server
	ids       []string
	submitted []time.Time
}

// startService starts a registry behind an httptest server and submits
// every document as a job over HTTP: the fabric workload's setup.
func startService(docs []specDoc, dir string, wrap func(http.Handler) http.Handler, client *http.Client, tr *tracer, parent int) (*service, error) {
	reg, err := fabric.NewRegistry(fabric.RegistryConfig{Dir: dir, DrainAfter: len(docs), Log: quietLog})
	if err != nil {
		return nil, err
	}
	handler := reg.Handler()
	if wrap != nil {
		handler = wrap(handler)
	}
	s := &service{reg: reg, srv: httptest.NewServer(handler)}
	for _, doc := range docs {
		s.submitted = append(s.submitted, time.Now())
		sp := tr.begin("fabric.submit", parent)
		st, err := fabric.SubmitJob(client, s.srv.URL, "", doc.Bytes)
		tr.end(sp)
		if err == nil && st.State == fabric.JobFailed {
			err = fmt.Errorf("%s: job failed at submit: %s", doc.Name, st.Error)
		}
		if err != nil {
			s.srv.Close()
			return nil, err
		}
		s.ids = append(s.ids, st.ID)
	}
	return s, nil
}

// fabricLayers derives the fabric metrics from the server-side request
// log and each executor's client-side log.
func fabricLayers(server []httpEvent, execLogs []httpLog, execStart, lastDone time.Time) map[string]float64 {
	out := make(map[string]float64)
	var uploads, leases []time.Duration
	var uploadBytes int64
	var noWork int
	var lastAccepted time.Time
	for _, e := range server {
		switch e.Path {
		case "/upload":
			uploads = append(uploads, e.End.Sub(e.Start))
			uploadBytes += e.Bytes
			if e.Accepted && e.End.After(lastAccepted) {
				lastAccepted = e.End
			}
		case "/lease":
			if e.Status == http.StatusNoContent {
				noWork++
			}
		}
	}
	var busy, compute time.Duration
	for i := range execLogs {
		events := execLogs[i].snapshot()
		sort.Slice(events, func(a, b int) bool { return events[a].Start.Before(events[b].Start) })
		var leasedAt time.Time
		for _, e := range events {
			switch e.Path {
			case "/lease":
				leases = append(leases, e.End.Sub(e.Start))
				if e.Status == http.StatusOK {
					leasedAt = e.End
				}
			case "/upload":
				if !leasedAt.IsZero() {
					busy += e.End.Sub(leasedAt)
					compute += e.Start.Sub(leasedAt)
					leasedAt = time.Time{}
				}
			}
		}
	}
	ms := func(ds []time.Duration, q float64) float64 {
		if len(ds) == 0 {
			return 0
		}
		return durationQuantile(ds, q) / 1e3
	}
	out["fabric.lease_ms_p50"] = ms(leases, 0.50)
	out["fabric.lease_ms_p99"] = ms(leases, 0.99)
	out["fabric.upload_ms_p50"] = ms(uploads, 0.50)
	out["fabric.upload_ms_p99"] = ms(uploads, 0.99)
	out["fabric.upload_mb"] = float64(uploadBytes) / 1e6
	out["fabric.requests"] = float64(len(server))
	out["fabric.no_work_replies"] = float64(noWork)
	if window := lastDone.Sub(execStart); window > 0 {
		out["fabric.executor_idle_frac"] = 1 - busy.Seconds()/(window.Seconds()*float64(len(execLogs)))
	}
	if !lastAccepted.IsZero() {
		out["fabric.merge_tail_s"] = lastDone.Sub(lastAccepted).Seconds()
	}
	// Slice execution happens inside the executors; from outside it is
	// the time from a lease reply to the slice's upload, summed over
	// executors.
	out["campaign.execute_s"] = compute.Seconds()
	return out
}

// replayMerge times, outside the measured run, the calls the service's
// server-side merge makes — planning every slice, MergePartials over
// the job's uploaded partials, WriteArtifacts — on the same inputs, as
// the service runs them out of the benchmark's reach.
func replayMerge(docs []specDoc, jobs []*fabric.JobStatus, dir string, tr *tracer) error {
	root := tr.begin("replay", 0)
	defer tr.end(root)
	for i, doc := range docs {
		f, err := spec.Parse(doc.Bytes)
		if err != nil {
			return err
		}
		built, err := f.BuildAll()
		if err != nil {
			return err
		}
		out := filepath.Join(dir, "replay", doc.Name)
		for _, b := range built {
			cfg := b.EngineConfig(f)
			sp := tr.begin("campaign.plan", root)
			for s := range fabric.DefaultSlices {
				if _, err := campaign.NewPlan(b.Scenario, cfg.ShardSize, campaign.Partition{Index: s, Count: fabric.DefaultSlices}); err != nil {
					return err
				}
			}
			tr.end(sp)
			sp = tr.begin("campaign.merge", root)
			res, err := b.MergePartials(f, jobs[i].Dir, nil)
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.begin("spec.write", root)
			err = b.WriteArtifacts(out, res)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// treeDigest hashes every file below root (relative path and content,
// in lexical order) and returns the digest and the total size.
func treeDigest(root string) (string, int64, error) {
	h := sha256.New()
	var total int64
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		total += int64(len(data))
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), total, err
}

// resultTrials sums the merged trial counts of the JSON result
// artifacts below root.
func resultTrials(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r struct {
			Trials int64 `json:"trials"`
		}
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		total += r.Trials
		return nil
	})
	return total, err
}

// partialSizes returns the inflated and stored sizes of the partial
// artifacts in a job's namespace, skipping its results directory.
func partialSizes(nsDir, resultsDir string) (raw, stored int64, err error) {
	err = filepath.WalkDir(nsDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == resultsDir {
				return filepath.SkipDir
			}
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		stored += int64(len(data))
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			raw += int64(len(data))
			return nil
		}
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return err
		}
		n, err := io.Copy(io.Discard, zr)
		raw += n
		return err
	})
	return raw, stored, err
}
