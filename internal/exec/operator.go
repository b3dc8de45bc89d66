package exec

import (
	"context"
	"sync/atomic"
	"time"

	"redshift/internal/plan"
	"redshift/internal/storage"
	"redshift/internal/telemetry"
)

// Operator is one node of a streaming physical-operator chain: the
// pull-based (Volcano-style) execution model of §2.1, where intermediate
// results flow batch-at-a-time through a fused per-slice pipeline instead
// of being fully materialized between stages. Next returns (nil, nil) at
// end of stream. Operators are single-consumer: one goroutine drives a
// chain end to end.
//
// The context flows through every pull so cancellation (Database.Cancel,
// statement_timeout) reaches the leaves: scans check it per block pull
// and exchange receives select on it, bounding abort latency to one
// batch boundary. Close never takes a context — cleanup must run even
// after cancellation.
type Operator interface {
	Open(ctx context.Context) error
	Next(ctx context.Context) (*Batch, error)
	Close() error
}

// BatchSource replays a fixed batch list — system-table rows and other
// already-materialized inputs.
type BatchSource struct {
	batches []*Batch
	i       int
}

// NewBatchSource wraps batches as an Operator.
func NewBatchSource(batches []*Batch) *BatchSource { return &BatchSource{batches: batches} }

func (s *BatchSource) Open(ctx context.Context) error { return nil }

func (s *BatchSource) Next(ctx context.Context) (*Batch, error) {
	for s.i < len(s.batches) {
		b := s.batches[s.i]
		s.i++
		if b != nil && b.N > 0 {
			return b, nil
		}
	}
	return nil, nil
}

func (s *BatchSource) Close() error { return nil }

// ScanOp streams one table's visible segments on one slice, one block
// row-group per Next pull.
type ScanOp struct {
	sc   *Scanner
	segs []*storage.Segment
	si   int
	bi   int
}

// NewScanOp wraps a prepared Scanner over a segment list.
func NewScanOp(sc *Scanner, segs []*storage.Segment) *ScanOp {
	return &ScanOp{sc: sc, segs: segs}
}

func (o *ScanOp) Open(ctx context.Context) error { return nil }

func (o *ScanOp) Next(ctx context.Context) (*Batch, error) {
	for o.si < len(o.segs) {
		// The per-pull check is what bounds cancellation latency at the
		// pipeline's leaves.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seg := o.segs[o.si]
		if o.bi >= seg.NumBlocks() {
			o.si++
			o.bi = 0
			continue
		}
		if seg.Schema.Len() != o.sc.width {
			return nil, errWidth("segment", seg.Schema.Len(), o.sc.width)
		}
		bi := o.bi
		o.bi++
		b, err := o.sc.ScanBlock(ctx, seg, bi)
		if err != nil {
			return nil, err
		}
		if b != nil {
			return b, nil
		}
	}
	return nil, nil
}

func (o *ScanOp) Close() error { return nil }

// FilterOp streams its child through a predicate, dropping emptied batches.
type FilterOp struct {
	child Operator
	f     *Filter
}

// NewFilterOp prepares a streaming filter; a nil predicate passes through.
func NewFilterOp(mode Mode, pred plan.Expr, child Operator) (*FilterOp, error) {
	f, err := NewFilter(mode, pred)
	if err != nil {
		return nil, err
	}
	return &FilterOp{child: child, f: f}, nil
}

func (o *FilterOp) Open(ctx context.Context) error { return o.child.Open(ctx) }

func (o *FilterOp) Next(ctx context.Context) (*Batch, error) {
	for {
		b, err := o.child.Next(ctx)
		if err != nil || b == nil {
			return nil, err
		}
		fb, err := o.f.Apply(b)
		if err != nil {
			return nil, err
		}
		if fb != b {
			// The gather copied the surviving rows; the input batch is
			// consumed and this operator is its sole owner.
			PutBatch(b)
		}
		if fb.N > 0 {
			return fb, nil
		}
		if fb != b {
			PutBatch(fb)
		}
	}
}

func (o *FilterOp) Close() error { return o.child.Close() }

// ProjectOp computes the output columns batch by batch.
type ProjectOp struct {
	child Operator
	proj  *Projector
}

// NewProjectOp prepares a streaming projection.
func NewProjectOp(mode Mode, exprs []plan.Expr, child Operator) (*ProjectOp, error) {
	proj, err := NewProjector(mode, exprs)
	if err != nil {
		return nil, err
	}
	return &ProjectOp{child: child, proj: proj}, nil
}

func (o *ProjectOp) Open(ctx context.Context) error { return o.child.Open(ctx) }

func (o *ProjectOp) Next(ctx context.Context) (*Batch, error) {
	b, err := o.child.Next(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	return o.proj.Apply(b)
}

func (o *ProjectOp) Close() error { return o.child.Close() }

// HashJoinOp is the join's pipeline breaker on the build side only: Open
// drains the build child into the hash table, then probe batches stream
// through without materialization. If the build side overflowed its
// memory grant, Next instead drains the probe side into grace-join
// partitions and streams the merged per-partition join output, which is
// row-for-row identical to the in-memory order.
type HashJoinOp struct {
	join  *HashJoin
	build Operator
	probe Operator

	spillOut batchStream // set once the spilled probe has been partitioned and joined
}

// NewHashJoinOp pairs a prepared HashJoin with its input operators.
func NewHashJoinOp(join *HashJoin, build, probe Operator) *HashJoinOp {
	return &HashJoinOp{join: join, build: build, probe: probe}
}

func (o *HashJoinOp) Open(ctx context.Context) error {
	if err := o.build.Open(ctx); err != nil {
		o.build.Close()
		return err
	}
	for {
		b, err := o.build.Next(ctx)
		if err != nil {
			o.build.Close()
			return err
		}
		if b == nil {
			break
		}
		if err := o.join.Build(b); err != nil {
			o.build.Close()
			return err
		}
	}
	if err := o.build.Close(); err != nil {
		return err
	}
	return o.probe.Open(ctx)
}

func (o *HashJoinOp) Next(ctx context.Context) (*Batch, error) {
	if o.join.Spilled() {
		return o.spillNext(ctx)
	}
	for {
		b, err := o.probe.Next(ctx)
		if err != nil || b == nil {
			return nil, err
		}
		joined, err := o.join.Probe(b)
		if err != nil {
			return nil, err
		}
		// Probe assembled a fresh batch (columns are gathered copies), so
		// the probe input is consumed here. Build-side batches are NOT
		// released anywhere: a broadcast exchange shares one batch across
		// every consumer slice.
		PutBatch(b)
		if joined.N > 0 {
			return joined, nil
		}
		PutBatch(joined)
	}
}

// spillNext runs the grace join: partition the whole probe stream to
// scratch files, join each partition pair, then stream the seq-merged
// output with the carry column stripped.
func (o *HashJoinOp) spillNext(ctx context.Context) (*Batch, error) {
	if o.spillOut == nil {
		for {
			b, err := o.probe.Next(ctx)
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			err = o.join.spill.addProbe(b)
			PutBatch(b)
			if err != nil {
				return nil, err
			}
		}
		out, err := o.join.spill.run(ctx)
		if err != nil {
			return nil, err
		}
		o.spillOut = out
	}
	for {
		b, err := o.spillOut.Next(ctx)
		if err != nil || b == nil {
			return nil, err
		}
		b.Cols = b.Cols[:len(b.Cols)-1] // strip the probe-sequence carry
		if b.N > 0 {
			return b, nil
		}
		PutBatch(b)
	}
}

func (o *HashJoinOp) Close() error {
	o.join.ReleaseMem()
	return o.probe.Close()
}

// PartialAggOp is a full pipeline breaker: it folds its entire input into a
// slice-local group table and emits nothing — the leader merges the tables.
type PartialAggOp struct {
	child Operator
	gt    *GroupTable
	done  bool
}

// NewPartialAggOp prepares the slice-local aggregation phase.
func NewPartialAggOp(gt *GroupTable, child Operator) *PartialAggOp {
	return &PartialAggOp{child: child, gt: gt}
}

func (o *PartialAggOp) Open(ctx context.Context) error { return o.child.Open(ctx) }

func (o *PartialAggOp) Next(ctx context.Context) (*Batch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	for {
		b, err := o.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		if err := o.gt.Consume(b); err != nil {
			return nil, err
		}
		// Consume copies values into accumulator states; the batch is
		// spent and this breaker is its sole owner.
		PutBatch(b)
	}
}

func (o *PartialAggOp) Close() error { return o.child.Close() }

// Table exposes the accumulated partial state after the chain is drained.
func (o *PartialAggOp) Table() *GroupTable { return o.gt }

// StreamDistinctOp drops rows already seen earlier in the stream. It is NOT
// a pipeline breaker: first-occurrence order is exactly what batchwise
// filtering with a shared seen-set produces.
type StreamDistinctOp struct {
	child Operator
	seen  *rowSet
}

// NewStreamDistinctOp prepares a streaming partial-distinct.
func NewStreamDistinctOp(child Operator) *StreamDistinctOp {
	return &StreamDistinctOp{child: child, seen: newRowSet(0)}
}

func (o *StreamDistinctOp) Open(ctx context.Context) error { return o.child.Open(ctx) }

func (o *StreamDistinctOp) Next(ctx context.Context) (*Batch, error) {
	for {
		b, err := o.child.Next(ctx)
		if err != nil || b == nil {
			return nil, err
		}
		sel, _ := o.seen.filter(b)
		if len(sel) == b.N {
			return b, nil
		}
		if len(sel) > 0 {
			out := b.Gather(sel)
			PutBatch(b)
			return out, nil
		}
		PutBatch(b)
	}
}

func (o *StreamDistinctOp) Close() error { return o.child.Close() }

// TopNOp is a pipeline breaker: it feeds its whole input through a
// bounded ExternalSorter, which keeps only the first limit rows (spilling
// runs when even those outgrow the memory grant), and emits exactly one
// batch (possibly empty) — the slice-local ORDER BY + LIMIT pushdown.
type TopNOp struct {
	child Operator
	keys  []plan.OrderKey
	limit int64
	width int
	mc    *MemContext
	done  bool
}

// NewTopNOp prepares a slice-local top-N over a stream of the given width.
func NewTopNOp(child Operator, keys []plan.OrderKey, limit int64, width int) *TopNOp {
	return &TopNOp{child: child, keys: keys, limit: limit, width: width}
}

// SetMemory attaches the operator to the query's memory governance.
func (o *TopNOp) SetMemory(mc *MemContext) { o.mc = mc }

func (o *TopNOp) Open(ctx context.Context) error { return o.child.Open(ctx) }

func (o *TopNOp) Next(ctx context.Context) (*Batch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	sorter := NewExternalSorter(o.keys, o.width, o.mc, o.limit)
	for {
		b, err := o.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		err = sorter.Add(b)
		// Add copied the rows it kept; the streamed batch is spent.
		PutBatch(b)
		if err != nil {
			return nil, err
		}
	}
	return sorter.Result(ctx)
}

func (o *TopNOp) Close() error {
	o.mc.release()
	return o.child.Close()
}

// GroupMergeOp is the leader's aggregation phase: it merges the per-slice
// partial tables into a fresh leader table and emits the aggregate layout
// once. A dedicated leader table (rather than reusing slice 0's) keeps
// the merge correct when slice tables spilled: draining a spilled table
// interleaves resident and re-aggregated groups, and merging into a table
// with its own pending partitions would double-emit keys. ship observes
// each non-leader table before merging (gather-transfer accounting).
type GroupMergeOp struct {
	leader *GroupTable
	tables []*GroupTable
	ship   func(sl int, t *GroupTable)
	done   bool
}

// NewGroupMergeOp prepares the leader merge; ship may be nil.
func NewGroupMergeOp(leader *GroupTable, tables []*GroupTable, ship func(sl int, t *GroupTable)) *GroupMergeOp {
	return &GroupMergeOp{leader: leader, tables: tables, ship: ship}
}

func (o *GroupMergeOp) Open(ctx context.Context) error { return nil }

func (o *GroupMergeOp) Next(ctx context.Context) (*Batch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	most := 0
	for _, t := range o.tables {
		most = max(most, t.NumGroups())
	}
	o.leader.reserve(most)
	for sl, t := range o.tables {
		if sl > 0 && o.ship != nil {
			o.ship(sl, t)
		}
		if err := o.leader.MergeCtx(ctx, t); err != nil {
			return nil, err
		}
	}
	return o.leader.ResultCtx(ctx)
}

func (o *GroupMergeOp) Close() error {
	o.leader.ReleaseMem()
	for _, t := range o.tables {
		t.ReleaseMem()
	}
	return nil
}

// LeaderMergeOp gathers per-slice result streams at the leader: a sorted
// merge when every slice pre-sorted its output (the top-N pushdown path),
// otherwise a slice-order replay of the gathered batches.
type LeaderMergeOp struct {
	perSlice [][]*Batch
	keys     []plan.OrderKey
	sorted   bool

	flat []*Batch
	i    int
	done bool
}

// NewLeaderMergeOp prepares the gather step. sorted selects the merge of
// pre-sorted single-batch slices.
func NewLeaderMergeOp(perSlice [][]*Batch, keys []plan.OrderKey, sorted bool) *LeaderMergeOp {
	return &LeaderMergeOp{perSlice: perSlice, keys: keys, sorted: sorted}
}

func (o *LeaderMergeOp) Open(ctx context.Context) error {
	if !o.sorted {
		for _, bs := range o.perSlice {
			o.flat = append(o.flat, bs...)
		}
	}
	return nil
}

func (o *LeaderMergeOp) Next(ctx context.Context) (*Batch, error) {
	if o.sorted {
		if o.done {
			return nil, nil
		}
		o.done = true
		var firsts []*Batch
		for _, bs := range o.perSlice {
			if len(bs) > 0 {
				firsts = append(firsts, bs[0])
			}
		}
		return MergeSorted(firsts, o.keys)
	}
	for o.i < len(o.flat) {
		b := o.flat[o.i]
		o.i++
		if b != nil && b.N > 0 {
			return b, nil
		}
	}
	return nil, nil
}

func (o *LeaderMergeOp) Close() error { return nil }

// FinalizeOp applies leader-side DISTINCT, ORDER BY and LIMIT. It is a
// breaker when any of those is set; either way it emits exactly one batch
// so the driver always has a well-formed (possibly empty) result.
// DISTINCT filters streamwise (first occurrence wins, as before), ORDER
// BY runs through an ExternalSorter bounded by the LIMIT, so a top-N keeps
// only its candidates and a larger-than-memory leader sort spills runs
// instead of holding everything; without ORDER BY the leader
// must materialize the result anyway and the concat is charged (forced)
// so peak accounting stays honest.
type FinalizeOp struct {
	child    Operator
	distinct bool
	keys     []plan.OrderKey
	limit    int64
	width    int
	mc       *MemContext
	done     bool
}

// NewFinalizeOp prepares the leader's final step over a stream of width
// columns.
func NewFinalizeOp(child Operator, distinct bool, keys []plan.OrderKey, limit int64, width int) *FinalizeOp {
	return &FinalizeOp{child: child, distinct: distinct, keys: keys, limit: limit, width: width}
}

// SetMemory attaches the operator to the query's memory governance.
func (o *FinalizeOp) SetMemory(mc *MemContext) { o.mc = mc }

func (o *FinalizeOp) Next(ctx context.Context) (*Batch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	var seen *rowSet
	if o.distinct {
		seen = newRowSet(0)
	}
	var sorter *ExternalSorter
	var merged *Batch
	if len(o.keys) > 0 {
		sorter = NewExternalSorter(o.keys, o.width, o.mc, o.limit)
	} else {
		merged = NewBatch(o.width)
	}
	for {
		b, err := o.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if b.N == 0 {
			continue
		}
		// Leader-merge batches are shared with the gather lists, so the
		// child's batches are never released here; gathered copies are.
		fb := b
		if o.distinct {
			sel, keyBytes := seen.filter(b)
			o.mc.grow(keyBytes + 48*int64(len(sel)))
			if len(sel) == 0 {
				continue
			}
			if len(sel) < b.N {
				fb = b.Gather(sel)
			}
		}
		if sorter != nil {
			err = sorter.Add(fb)
		} else {
			err = merged.Concat(fb)
			o.mc.grow(fb.ByteSize())
		}
		if fb != b {
			PutBatch(fb)
		}
		if err != nil {
			return nil, err
		}
	}
	if sorter != nil {
		return sorter.Result(ctx)
	}
	return TopN(merged, o.limit), nil
}

func (o *FinalizeOp) Open(ctx context.Context) error { return o.child.Open(ctx) }

func (o *FinalizeOp) Close() error {
	o.mc.release()
	return o.child.Close()
}

// FlightTracker counts batches that have been produced but not yet retired
// anywhere in a query's pipelines — including batches parked in exchange
// buffers. The high-water mark is the query's peak count of live
// intermediate batches: O(slices × pipeline depth) for a streaming
// executor, O(table size) for a materializing one. All methods are
// nil-receiver safe.
type FlightTracker struct {
	cur  atomic.Int64
	peak atomic.Int64
	// live, when set, mirrors the current count into a shared gauge
	// (exec_batches_in_flight) so /metrics shows pipeline pressure.
	live *telemetry.Gauge
}

// NewFlightTracker returns a tracker mirroring into live (which may be nil).
func NewFlightTracker(live *telemetry.Gauge) *FlightTracker {
	return &FlightTracker{live: live}
}

// Inc records one batch entering flight.
func (f *FlightTracker) Inc() {
	if f == nil {
		return
	}
	c := f.cur.Add(1)
	for {
		p := f.peak.Load()
		if c <= p || f.peak.CompareAndSwap(p, c) {
			break
		}
	}
	if f.live != nil {
		f.live.Add(1)
	}
}

// Dec records one batch retired.
func (f *FlightTracker) Dec() {
	if f == nil {
		return
	}
	f.cur.Add(-1)
	if f.live != nil {
		f.live.Add(-1)
	}
}

// Current returns the live batch count.
func (f *FlightTracker) Current() int64 {
	if f == nil {
		return 0
	}
	return f.cur.Load()
}

// HighWater returns the peak live batch count.
func (f *FlightTracker) HighWater() int64 {
	if f == nil {
		return 0
	}
	return f.peak.Load()
}

// OpStats accumulates one physical operator's runtime counters, shared by
// all of its per-slice instances. Nanos is inclusive (child time counted),
// like EXPLAIN ANALYZE actual time.
type OpStats struct {
	Rows    atomic.Int64
	Batches atomic.Int64
	Nanos   atomic.Int64
}

// instrumented decorates an Operator with the per-operator telemetry the
// trace tree is built from — rows, batches, cumulative time — and tracks
// emitted batches in a FlightTracker. A batch is retired when the consumer
// pulls again (or closes): the pull contract means the consumer is done
// with the previous batch by then.
type instrumented struct {
	op          Operator
	st          *OpStats
	fl          *FlightTracker
	outstanding bool
}

// Instrument wraps op; st and fl may each be nil.
func Instrument(op Operator, st *OpStats, fl *FlightTracker) Operator {
	if st == nil && fl == nil {
		return op
	}
	return &instrumented{op: op, st: st, fl: fl}
}

func (o *instrumented) Open(ctx context.Context) error {
	start := time.Now()
	err := o.op.Open(ctx)
	if o.st != nil {
		o.st.Nanos.Add(int64(time.Since(start)))
	}
	return err
}

func (o *instrumented) Next(ctx context.Context) (*Batch, error) {
	if o.outstanding {
		o.fl.Dec()
		o.outstanding = false
	}
	start := time.Now()
	b, err := o.op.Next(ctx)
	if o.st != nil {
		o.st.Nanos.Add(int64(time.Since(start)))
	}
	if b != nil {
		if o.st != nil {
			o.st.Batches.Add(1)
			o.st.Rows.Add(int64(b.N))
		}
		if o.fl != nil {
			o.fl.Inc()
			o.outstanding = true
		}
	}
	return b, err
}

func (o *instrumented) Close() error {
	if o.outstanding {
		o.fl.Dec()
		o.outstanding = false
	}
	start := time.Now()
	err := o.op.Close()
	if o.st != nil {
		o.st.Nanos.Add(int64(time.Since(start)))
	}
	return err
}
