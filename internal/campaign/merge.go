package campaign

import (
	"fmt"
	"sort"
	"sync"
)

// Sink consumes a merged campaign's samples and notes in trial order
// instead of accumulating them into the Result, so million-sample
// campaigns can stream straight to disk with bounded memory.
type Sink interface {
	// Start is called once, after counters, trial bookkeeping and the
	// early-stop decision are final but before any samples, with the
	// Result whose Samples and Notes fields are nil.
	Start(res *Result) error
	// Sample receives each sample in trial order.
	Sample(s Sample) error
	// Note receives each note in trial order.
	Note(n Note) error
}

// MergeConfig tunes how partials fold into a Result.
type MergeConfig struct {
	// Stop re-applies the campaign's early-stop rule on the contiguous
	// global shard prefix. It must be the same rule the single-process
	// run would use: partitioned executors over-run a would-be stopping
	// point (they cannot see the global prefix), and the merger
	// truncates the result at the deterministic stopping shard, so the
	// merged Result is bit-identical to the single-process one.
	Stop *EarlyStop
	// Sink, when non-nil, receives samples and notes in trial order
	// and the Result's Samples/Notes fields stay nil (the
	// bounded-memory path); otherwise they accumulate in the Result.
	Sink Sink
	// ParamsDigest, when set, is the digest of the scenario parameter
	// set the caller is merging FOR (the current spec entry): any
	// partial carrying a different digest is a stale artifact from an
	// edited spec and the merge is refused. Partials without a digest
	// (pre-digest artifacts) pass — the documented caveat.
	ParamsDigest string
	// AllowIncomplete folds only the contiguous complete shard prefix
	// instead of refusing a merge with missing shards: the Result's
	// Trials then reflect the folded prefix. The adaptive allocator
	// uses it to read out a budget-bounded campaign whose stop rule
	// never fired. At least one leading shard must be complete.
	AllowIncomplete bool
	// Workers parallelizes pass 2: shard records (the per-slice sample
	// streams, possibly spilled to disk) are loaded and decoded by
	// Workers goroutines while the fold still consumes them in global
	// shard order, so the merged Result — and every Sink callback
	// sequence — is bit-identical to the sequential merge. The number
	// of loaded-but-unconsumed shards is bounded (a small multiple of
	// Workers), preserving the bounded-memory property of streaming
	// merges. <= 1 keeps the sequential path.
	Workers int
}

// Merge folds any set of partial results — from one process or many —
// into the Result a single-process run would produce. It validates
// that every partial was drawn from this engine's trial streams
// (TrialStreams), that the partials share one campaign fingerprint
// (scenario, trial count, shard size) and partition count, that their
// shard sets are disjoint and lie inside their declared partition
// ranges, and that
// together they cover every shard up to the campaign's end (or its
// deterministic early-stop point). Shards are folded in global index
// order, so counters, samples and notes are bit-identical to the
// single-process merge.
func Merge(partials []*Partial, cfg MergeConfig) (*Result, error) {
	if len(partials) == 0 {
		return nil, fmt.Errorf("campaign: no partials to merge")
	}
	if cfg.Stop != nil {
		if err := cfg.Stop.validate(); err != nil {
			return nil, err
		}
	}
	sorted := make([]*Partial, len(partials))
	copy(sorted, partials)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].header.PartitionIndex < sorted[j].header.PartitionIndex
	})

	head := sorted[0].header
	numShards := head.numShards()
	owner := make(map[int]*Partial, numShards)
	// The digest check is pairwise-transitive via the first non-empty
	// digest seen: pre-digest partials (empty digest) are compatible
	// with everything, but two partials carrying different digests —
	// or one contradicting the caller's expected digest — mean some
	// shards were computed under edited params and must not merge.
	digestHolder := partialHeader{ParamsDigest: cfg.ParamsDigest}
	for _, p := range sorted {
		h := p.header
		if err := h.checkStreams(describePartial(p)); err != nil {
			return nil, err
		}
		if !h.geometryMatches(head) {
			return nil, fmt.Errorf("campaign: partial %s is from campaign %q, want %q", describePartial(p), h.fingerprint(), head.fingerprint())
		}
		if h.Version != head.Version {
			return nil, fmt.Errorf("campaign: partial %s has artifact version %d, want %d: weighted and unweighted partials cannot merge",
				describePartial(p), h.Version, head.Version)
		}
		if h.digestConflicts(digestHolder) {
			return nil, fmt.Errorf("campaign: partial %s was computed under different scenario params (digest %s, want %s): it is stale — recompute it or revert the spec edit",
				describePartial(p), h.ParamsDigest, digestHolder.ParamsDigest)
		}
		if h.ParamsDigest != "" {
			digestHolder.ParamsDigest = h.ParamsDigest
		}
		if h.PartitionCount != head.PartitionCount {
			return nil, fmt.Errorf("campaign: partial %s declares %d partitions, want %d", describePartial(p), h.PartitionCount, head.PartitionCount)
		}
		// Shards must lie inside the partial's declared contiguous
		// partition range (the planner's shardRange) and be claimed by
		// exactly one partial.
		first, end := h.partition().shardRange(numShards)
		for _, idx := range p.Shards() {
			if idx < first || idx >= end {
				return nil, fmt.Errorf("campaign: partial %s holds shard %d outside partition %s range [%d, %d)",
					describePartial(p), idx, h.partition(), first, end)
			}
			if prev, dup := owner[idx]; dup {
				return nil, fmt.Errorf("campaign: shard %d appears in partials %s and %s", idx, describePartial(prev), describePartial(p))
			}
			owner[idx] = p
		}
	}

	// Pass 1: fold counters in shard order and decide the early stop
	// on the contiguous prefix, exactly as a single-process run does.
	// A shard missing before the stopping point (or the end) means the
	// partition set is incomplete.
	span := func(idx int) (lo, hi int) {
		return shardSpan(idx, head.ShardSize, head.Trials)
	}
	counters := make(map[string]int64)
	weighted := head.Version == partialVersionWeighted
	var weights map[string]Moments
	if weighted {
		weights = make(map[string]Moments)
	}
	useShards := numShards
	earlyStopped := false
	for i := 0; i < numShards; i++ {
		p, ok := owner[i]
		if !ok {
			// With AllowIncomplete the contiguous complete prefix is the
			// result; without it a missing shard is a refused merge.
			if cfg.AllowIncomplete && i > 0 {
				useShards = i
				break
			}
			return nil, fmt.Errorf("campaign: %s: incomplete merge: shard %d of %d missing from the %d given partial(s)",
				head.Scenario, i, numShards, len(partials))
		}
		for k, v := range p.counters[i] {
			counters[k] += v
		}
		if weighted {
			// Only counters recorded via AddWeighted carry moments;
			// diagnostics folded with Add stay integer-only.
			for k, m := range p.weights[i] {
				w := weights[k]
				w.add(m)
				weights[k] = w
			}
		}
		if cfg.Stop != nil {
			_, trialsSoFar := span(i)
			successes := counters[cfg.Stop.Counter]
			if err := checkBinomial(head.Scenario, cfg.Stop.Counter, successes, trialsSoFar); err != nil {
				return nil, err
			}
			var fired bool
			if weighted {
				fired = cfg.Stop.SatisfiedWeighted(weights[cfg.Stop.Counter], trialsSoFar)
			} else {
				fired = cfg.Stop.satisfied(successes, trialsSoFar)
			}
			if fired {
				useShards = i + 1
				earlyStopped = useShards < numShards
				break
			}
		}
	}

	resumed := 0
	for _, p := range sorted {
		resumed += p.resumed
	}
	_, trials := span(useShards - 1)
	res := &Result{
		Scenario:      head.Scenario,
		Requested:     head.Trials,
		Trials:        trials,
		EarlyStopped:  earlyStopped,
		ResumedTrials: resumed,
		// The prefix loop stops folding counters at the stopping shard,
		// so the totals cover exactly [0, useShards).
		Counters: counters,
	}
	if weighted {
		res.Weights = weights
	}

	// Pass 2: stream samples and notes in shard (= trial) order,
	// re-reading spilled records from their artifacts on demand.
	if cfg.Sink != nil {
		if err := cfg.Sink.Start(res); err != nil {
			return nil, err
		}
	}
	emit := func(rec *shardRecord) error {
		if cfg.Sink != nil {
			for _, s := range rec.Samples {
				if err := cfg.Sink.Sample(s); err != nil {
					return err
				}
			}
			for _, n := range rec.Notes {
				if err := cfg.Sink.Note(n); err != nil {
					return err
				}
			}
			return nil
		}
		res.Samples = append(res.Samples, rec.Samples...)
		res.Notes = append(res.Notes, rec.Notes...)
		return nil
	}
	if cfg.Workers > 1 && useShards > 1 {
		if err := foldRecordsParallel(owner, useShards, cfg.Workers, emit); err != nil {
			return nil, err
		}
		return res, nil
	}
	for i := 0; i < useShards; i++ {
		rec, err := owner[i].load(i)
		if err != nil {
			return nil, err
		}
		if err := emit(rec); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// foldRecordsParallel is pass 2's parallel shard-record pipeline:
// workers load (and JSON-decode) shard records concurrently while the
// caller's emit still runs sequentially in global shard order — the
// same order the sequential loop uses, so the output is bit-identical.
// A window semaphore bounds the number of dispatched-but-unconsumed
// shards, so a streaming merge keeps its bounded-memory property.
// Dispatch is strictly in shard order, which guarantees the next shard
// the consumer needs is always within the window (no deadlock).
//
// One subtlety: concurrent loads of different shards of the SAME
// partial share its *os.File via ReadAt (safe: positional reads) but
// must not race on the lazy reopen, which load serializes internally.
func foldRecordsParallel(owner map[int]*Partial, useShards, workers int, emit func(*shardRecord) error) error {
	if workers > useShards {
		workers = useShards
	}
	window := 2 * workers

	type loaded struct {
		idx int
		rec *shardRecord
		err error
	}
	sem := make(chan struct{}, window)
	jobs := make(chan int)
	results := make(chan loaded, window)
	quit := make(chan struct{})
	var quitOnce sync.Once
	stop := func() { quitOnce.Do(func() { close(quit) }) }
	var wg sync.WaitGroup
	// On every exit — error paths included — signal quit and join the
	// workers, so no goroutine outlives the merge still reading partials
	// the caller is about to Close.
	defer func() {
		stop()
		wg.Wait()
	}()

	// Dispatcher: admit shard indices in order, gated by the window.
	go func() {
		defer close(jobs)
		for i := 0; i < useShards; i++ {
			select {
			case sem <- struct{}{}:
			case <-quit:
				return
			}
			select {
			case jobs <- i:
			case <-quit:
				return
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				rec, err := owner[idx].load(idx)
				select {
				case results <- loaded{idx: idx, rec: rec, err: err}:
				case <-quit:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Consumer: reorder the out-of-order completions back into global
	// shard order. pending never exceeds the window.
	pending := make(map[int]loaded, window)
	for next := 0; next < useShards; {
		l, ok := pending[next]
		if !ok {
			r, open := <-results
			if !open {
				// Workers exited without delivering shard `next` — only
				// possible after quit, i.e. an earlier error path.
				return fmt.Errorf("campaign: parallel merge lost shard %d", next)
			}
			pending[r.idx] = r
			continue
		}
		delete(pending, next)
		if l.err != nil {
			return l.err
		}
		if err := emit(l.rec); err != nil {
			return err
		}
		<-sem
		next++
	}
	return nil
}

// describePartial names a partial for error messages.
func describePartial(p *Partial) string {
	if p.path != "" {
		return p.path
	}
	return fmt.Sprintf("partition %s (in memory)", p.header.partition())
}
