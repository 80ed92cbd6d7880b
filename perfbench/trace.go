package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
)

// span is one timed call into a layer, recorded from outside the
// program. Times are offsets from the tracer's origin.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = root
	Run    int           `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spansFile is where a traced run writes its spans, as JSON lines, in
// its run directory.
const spansFile = "spans.jsonl"

// tracer keeps spans and per-trial latencies in memory for one run.
// A nil *tracer is the untraced run: every method is a no-op, so the
// measured code path is the same in both modes.
type tracer struct {
	run    int
	dir    string // where spans and the CPU profile are written
	origin time.Time

	mu     sync.Mutex
	spans  []span
	trials []*timedWorker
}

func newTracer(run int, dir string) *tracer { return &tracer{run: run, dir: dir, origin: time.Now()} }

// profilePath is where a traced run writes its CPU profile ("" when
// untraced).
func (t *tracer) profilePath() string {
	if t == nil {
		return ""
	}
	return filepath.Join(t.dir, "cpu.pprof")
}

// finish writes the spans out and charges the CPU profile's samples to
// layers.
func (t *tracer) finish(rep *report) error {
	if err := t.writeSpans(filepath.Join(t.dir, spansFile)); err != nil {
		return err
	}
	data, err := os.ReadFile(t.profilePath())
	if err != nil {
		return err
	}
	rep.CPU, err = profileLayers(data)
	return err
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// writeSpans stores the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part
// of its interval that its child spans cover, in seconds.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		covered := time.Duration(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		cur := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.Name] += (s.End - s.Start - covered).Seconds()
	}
	return out
}

// timedScenario wraps a scenario so every Trial call is timed. It
// forwards Weighted, so the planner sees the wrapped scenario exactly
// as it sees the original: a weighted plan stays weighted, and an
// unweighted one reports false, which the engine treats as a plain
// scenario.
type timedScenario struct {
	campaign.Scenario
	tr *tracer
}

func (t *tracer) wrap(scn campaign.Scenario) campaign.Scenario {
	if t == nil {
		return scn
	}
	return &timedScenario{Scenario: scn, tr: t}
}

func (s *timedScenario) Weighted() bool {
	ws, ok := s.Scenario.(campaign.WeightedScenario)
	return ok && ws.Weighted()
}

func (s *timedScenario) NewWorker() (campaign.Worker, error) {
	w, err := s.Scenario.NewWorker()
	if err != nil {
		return nil, err
	}
	tw := &timedWorker{w: w}
	s.tr.mu.Lock()
	s.tr.trials = append(s.tr.trials, tw)
	s.tr.mu.Unlock()
	return tw, nil
}

// timedWorker records the host latency of each Trial. A worker is used
// by one goroutine at a time, so its slice needs no lock; the tracer
// reads it only after Execute returned.
type timedWorker struct {
	w   campaign.Worker
	lat []time.Duration
}

func (w *timedWorker) Trial(trial int, acc *campaign.Acc) error {
	start := time.Now()
	err := w.w.Trial(trial, acc)
	w.lat = append(w.lat, time.Since(start))
	return err
}

// takeTrials returns the latencies recorded since the last call and
// forgets them, so each entry's trials can be attributed to its kind.
func (t *tracer) takeTrials() []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, w := range t.trials {
		out = append(out, w.lat...)
	}
	t.trials = nil
	return out
}

// httpEvent is one request seen by a fabric wrapper.
type httpEvent struct {
	Path       string
	Status     int
	Start, End time.Time
	Bytes      int64 // request body bytes read
	Accepted   bool  // upload replies: the registry accepted the partial
}

// httpLog collects events from one side of the fabric's HTTP traffic.
type httpLog struct {
	mu     sync.Mutex
	events []httpEvent
}

func (l *httpLog) add(e httpEvent) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *httpLog) snapshot() []httpEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]httpEvent(nil), l.events...)
}

// clientTransport times every request an executor (or the submitting
// client) makes, from send to the end of the response body.
type clientTransport struct {
	base http.RoundTripper
	log  *httpLog
}

func (c *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ev := httpEvent{Path: req.URL.Path, Start: time.Now()}
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		ev.End = time.Now()
		c.log.add(ev)
		return nil, err
	}
	ev.Status = resp.StatusCode
	resp.Body = &timedBody{ReadCloser: resp.Body, ev: ev, log: c.log}
	return resp, nil
}

// timedBody closes a client event when the caller is done with the
// response body.
type timedBody struct {
	io.ReadCloser
	ev   httpEvent
	log  *httpLog
	once sync.Once
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.ev.End = time.Now()
		b.log.add(b.ev)
	})
	return err
}

// serverHandler times every request the registry serves: body copy,
// inflate and validation for uploads, scheduling for leases.
func serverHandler(next http.Handler, log *httpLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ev := httpEvent{Path: req.URL.Path, Start: time.Now()}
		body := &countingBody{ReadCloser: req.Body}
		req.Body = body
		rw := &recordingWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rw, req)
		ev.End = time.Now()
		ev.Status = rw.status
		ev.Bytes = body.n
		ev.Accepted = strings.Contains(string(rw.head), `"accepted":true`)
		log.add(ev)
	})
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

// recordingWriter keeps the status code and the first bytes of the
// reply (enough to see an upload's verdict).
type recordingWriter struct {
	http.ResponseWriter
	status int
	head   []byte
}

func (w *recordingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	if room := 64 - len(w.head); room > 0 {
		w.head = append(w.head, p[:min(room, len(p))]...)
	}
	return w.ResponseWriter.Write(p)
}
