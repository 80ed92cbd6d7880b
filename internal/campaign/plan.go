package campaign

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Partition identifies one process's slice of a campaign: slice Index
// of Count equally sized (±1 shard) contiguous slices of the global
// shard range. The zero value means "the whole campaign" and is
// normalized to 0/1 by NewPlan.
type Partition struct {
	Index int
	Count int
}

// Whole is the single-process partition covering every shard.
var Whole = Partition{Index: 0, Count: 1}

// String renders the partition as "index/count".
func (p Partition) String() string { return fmt.Sprintf("%d/%d", p.Index, p.Count) }

func (p Partition) validate() error {
	if p.Count <= 0 {
		return fmt.Errorf("campaign: partition count %d must be positive", p.Count)
	}
	if p.Index < 0 || p.Index >= p.Count {
		return fmt.Errorf("campaign: partition index %d outside 0..%d", p.Index, p.Count-1)
	}
	return nil
}

// shardRange is the single authority for which contiguous slice
// [first, end) of a numShards-shard campaign the partition owns;
// planner and merger must agree on it exactly.
func (p Partition) shardRange(numShards int) (first, end int) {
	return scaledShard(p.Index, numShards, p.Count), scaledShard(p.Index+1, numShards, p.Count)
}

// scaledShard returns floor(i*numShards/count) for 0 <= i <= count
// with a 128-bit intermediate product, so the boundary stays exact for
// any trial count NewPlan accepts and any partition count.
func scaledShard(i, numShards, count int) int {
	hi, lo := bits.Mul64(uint64(i), uint64(numShards))
	q, _ := bits.Div64(hi, lo, uint64(count))
	return int(q)
}

// shardSpan is the single authority for the global trial range
// [lo, hi) of shard idx under the given geometry.
func shardSpan(idx, shardSize, trials int) (lo, hi int) {
	lo = idx * shardSize
	hi = lo + shardSize
	if hi > trials {
		hi = trials
	}
	return lo, hi
}

// ParsePartition parses the "i/N" syntax used by command-line flags.
// The whole string must be consumed: trailing garbage ("0/3x",
// "1/3,2/3") is rejected rather than silently running a lone slice.
func ParsePartition(s string) (Partition, error) {
	idx, count, ok := strings.Cut(s, "/")
	if !ok {
		return Partition{}, fmt.Errorf("campaign: partition %q is not of the form i/N", s)
	}
	var p Partition
	var err error
	if p.Index, err = strconv.Atoi(idx); err != nil {
		return Partition{}, fmt.Errorf("campaign: partition %q is not of the form i/N", s)
	}
	if p.Count, err = strconv.Atoi(count); err != nil {
		return Partition{}, fmt.Errorf("campaign: partition %q is not of the form i/N", s)
	}
	if err := p.validate(); err != nil {
		return Partition{}, err
	}
	return p, nil
}

// Plan is the deterministic work assignment of one partition of a
// campaign: the global shard geometry (which depends only on the
// scenario's trial count and the shard size, never on the partition)
// plus this partition's contiguous shard range. Because shard
// boundaries and each trial's TrialRNG stream are pure functions of
// the global trial index, the shards a partition executes are
// bit-identical to the ones a single process would execute for the
// same indices, which is what lets Merge reassemble a multi-process
// campaign into the single-process Result.
type Plan struct {
	Scenario  string
	Trials    int // global trial count
	ShardSize int
	NumShards int // global shard count
	Part      Partition
	// First and End bound this partition's contiguous shard range
	// [First, End); partitions are disjoint and cover every shard.
	First, End int
	// ParamsDigest optionally stamps the partial artifact with a
	// digest of the full scenario parameter set (see
	// Config.ParamsDigest); set it before Execute. "" disables the
	// digest check.
	ParamsDigest string
	// Weighted records that the scenario's trials carry
	// importance-sampling weights (see WeightedScenario): partial
	// artifacts are written as version 3 with per-shard weight
	// moments, and early stopping uses the relative-error rule
	// instead of the Wilson interval.
	Weighted bool
}

// NewPlan validates the scenario geometry and computes the
// partition's shard range. shardSize <= 0 selects DefaultShardSize.
// Any positive trial count is accepted as long as the shard geometry
// stays representable: total+shardSize-1, the numerator of the shard
// count and the end of the last shard's span, must not overflow an
// int. TrialRNG gives every int trial index its own stream, so there
// is no stream-aliasing cap.
func NewPlan(scn Scenario, shardSize int, part Partition) (*Plan, error) {
	if scn == nil {
		return nil, fmt.Errorf("campaign: nil scenario")
	}
	total := scn.Trials()
	if total <= 0 {
		return nil, fmt.Errorf("campaign: scenario %q has no trials", scn.Name())
	}
	if part == (Partition{}) {
		part = Whole
	}
	if err := part.validate(); err != nil {
		return nil, err
	}
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	if total > math.MaxInt-(shardSize-1) {
		return nil, fmt.Errorf("campaign: scenario %q has %d trials; with shard size %d the shard geometry overflows an int (at most %d trials)",
			scn.Name(), total, shardSize, math.MaxInt-(shardSize-1))
	}
	numShards := (total + shardSize - 1) / shardSize
	first, end := part.shardRange(numShards)
	weighted := false
	if ws, ok := scn.(WeightedScenario); ok {
		weighted = ws.Weighted()
	}
	return &Plan{
		Scenario:  scn.Name(),
		Trials:    total,
		ShardSize: shardSize,
		NumShards: numShards,
		Part:      part,
		First:     first,
		End:       end,
		Weighted:  weighted,
	}, nil
}

// ShardSpan returns the global trial range [lo, hi) of shard idx.
func (p *Plan) ShardSpan(idx int) (lo, hi int) {
	return shardSpan(idx, p.ShardSize, p.Trials)
}

// Shards returns the number of shards in this partition's range.
func (p *Plan) Shards() int { return p.End - p.First }

// PartitionTrials returns the number of trials this partition owns.
func (p *Plan) PartitionTrials() int {
	if p.First >= p.End {
		return 0
	}
	lo, _ := p.ShardSpan(p.First)
	_, hi := p.ShardSpan(p.End - 1)
	return hi - lo
}

// Full reports whether the plan covers the whole campaign (the
// single-process case). Only a full plan may decide early stopping in
// the executor; partitioned campaigns decide it at merge time.
func (p *Plan) Full() bool { return p.Part.Count == 1 }

// header is the single authority for a plan's partial-artifact
// identity; the file-backed and in-memory partial paths must build
// the exact same header or resume/merge validation would diverge.
func (p *Plan) header() partialHeader {
	version := partialVersion
	if p.Weighted {
		version = partialVersionWeighted
	}
	return partialHeader{
		Version:        version,
		Streams:        TrialStreams,
		Scenario:       p.Scenario,
		Trials:         p.Trials,
		ShardSize:      p.ShardSize,
		PartitionIndex: p.Part.Index,
		PartitionCount: p.Part.Count,
		ParamsDigest:   p.ParamsDigest,
	}
}
