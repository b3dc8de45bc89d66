package exec

import (
	"context"
	"sort"

	"redshift/internal/plan"
)

// ExternalSorter is the budget-aware ORDER BY backend: it accumulates
// input in memory while the query's grant allows, and when a batch no
// longer fits it sorts the accumulated rows into a run, spills the run to
// the scratch dir, and keeps going. Stream() then k-way merges every run
// (plus the final in-memory run) back in sorted order.
//
// A sorter built with a LIMIT (limit >= 0) is a bounded top-N: it keeps
// at most limit candidate rows in a heap ordered by (sort keys, arrival
// sequence), the row that sorts last on top. The first limit rows enter
// unordered and are heapified once; after that an incoming row enters
// only if its keys sort strictly before the top's (on a tie the earlier
// arrival wins), taking the evicted row's slot. A batch's surviving rows
// are copied into the resident store once, after the whole batch went
// through the heap; evicted rows stay in the store, dead, until it is
// compacted. Only the survivors are ever sorted.
//
// Determinism: runs are written in input order, the resident run merges
// last, each run is sorted by (keys, arrival), and the merge breaks ties
// toward the lowest stream index — so the global output is exactly the
// stable sort of the input (its first limit rows when bounded),
// byte-identical to the in-memory path at any budget.
type ExternalSorter struct {
	keys  []plan.OrderKey
	width int
	mc    *MemContext
	limit int64 // < 0: unbounded

	cur     *Batch // resident rows; when bounded, the candidate store
	charged int64
	runs    []*spillFile

	heap  candHeap // bounded only: the live candidates
	seq   int64    // bounded only: rows seen so far
	fresh []int    // bounded only: slots holding rows of the batch being added
}

// cand is one top-N candidate: a row of the store (or, while its batch is
// being added, of the incoming batch) and its arrival sequence.
type cand struct {
	b   *Batch
	row int
	seq int64
}

// NewExternalSorter builds a sorter over the given output layout width.
// limit is the query's LIMIT; a negative limit sorts every row. mc may be
// nil (pure in-memory sort).
func NewExternalSorter(keys []plan.OrderKey, width int, mc *MemContext, limit int64) *ExternalSorter {
	return &ExternalSorter{keys: keys, width: width, mc: mc, limit: limit, heap: candHeap{keys: keys, limit: limit}}
}

// Add feeds a batch's rows to the sorter. The caller keeps ownership of
// b: the rows the sorter keeps are copied before Add returns.
func (s *ExternalSorter) Add(b *Batch) error {
	if b == nil || b.N == 0 {
		return nil
	}
	if s.limit >= 0 {
		return s.addBounded(b)
	}
	sz := b.ByteSize()
	if !s.mc.tryGrow(sz) {
		if err := s.flushRun(); err != nil {
			return err
		}
		// The incoming batch must reside somewhere; after flushing the run
		// this is the new (small) resident set, charged unconditionally.
		s.mc.grow(sz)
	}
	s.charged += sz
	if s.cur == nil {
		s.cur = NewBatch(s.width)
	}
	return s.cur.Concat(b)
}

// addBounded runs b's rows through the candidate heap, then copies the
// rows of b that survived into the store.
func (s *ExternalSorter) addBounded(b *Batch) error {
	h := &s.heap
	s.fresh = s.fresh[:0]
	for r := 0; r < b.N; r++ {
		c := cand{b: b, row: r, seq: s.seq}
		s.seq++
		if int64(len(h.slots)) < s.limit {
			s.fresh = append(s.fresh, len(h.slots))
			h.add(c)
			continue
		}
		if s.limit == 0 {
			break
		}
		top := &h.slots[h.ids[0]]
		if crossCompare(b, r, top.b, top.row, s.keys) >= 0 {
			continue
		}
		if top.b != b {
			s.fresh = append(s.fresh, h.ids[0])
		}
		*top = c
		h.down(0)
	}
	if len(s.fresh) == 0 {
		return nil
	}
	if s.cur == nil {
		s.cur = NewBatch(s.width)
	}
	sel := make([]int, len(s.fresh))
	for i, slot := range s.fresh {
		c := &h.slots[slot]
		sel[i] = c.row
		c.b, c.row = s.cur, s.cur.N+i
	}
	g := b.Gather(sel)
	sz := g.ByteSize()
	err := s.cur.Concat(g)
	PutBatch(g)
	if err != nil {
		return err
	}
	if s.mc.tryGrow(sz) {
		s.charged += sz
		if s.cur.N <= 2*len(h.slots) {
			return nil
		}
	} else {
		// Held until compact re-reserves the live rows or spills them.
		s.mc.grow(sz)
		s.charged += sz
	}
	return s.compact()
}

// compact rewrites the store with only the live candidates. When even
// those outgrow the grant (a huge LIMIT), it spills them as a sorted run.
func (s *ExternalSorter) compact() error {
	slots := s.heap.slots
	sel := make([]int, len(slots))
	for i := range slots {
		sel[i] = slots[i].row
	}
	g := s.cur.Gather(sel)
	s.cur = NewBatch(s.width)
	err := s.cur.Concat(g) // fresh string copies: no dead row's bytes stay reachable
	PutBatch(g)
	if err != nil {
		return err
	}
	for i := range slots {
		slots[i].b, slots[i].row = s.cur, i
	}
	s.mc.shrink(s.charged)
	s.charged = s.cur.ByteSize()
	if s.mc.tryGrow(s.charged) {
		return nil
	}
	s.mc.grow(s.charged)
	return s.flushRun()
}

// Spilled reports whether any run went to disk.
func (s *ExternalSorter) Spilled() bool { return len(s.runs) > 0 }

// Release drops the resident run and returns its memory charge. Call
// only after the Stream() output has been fully drained — the resident
// run's batches are referenced by the merge until then.
func (s *ExternalSorter) Release() {
	s.mc.shrink(s.charged)
	s.charged = 0
	s.cur = nil
	s.heap.reset()
}

// sortResident replaces the resident rows with their sorted order: the
// whole store when unbounded, the live candidates when bounded.
func (s *ExternalSorter) sortResident() {
	if s.cur == nil || s.cur.N == 0 {
		return
	}
	if s.limit < 0 {
		s.cur = SortBatch(s.cur, s.keys)
		return
	}
	h := &s.heap
	sort.Slice(h.slots, func(i, j int) bool { return h.after(h.slots[j], h.slots[i]) })
	sel := make([]int, len(h.slots))
	for i, c := range h.slots {
		sel[i] = c.row
	}
	s.cur = s.cur.Gather(sel)
	h.reset()
}

// flushRun sorts the resident rows and writes them out as one run.
func (s *ExternalSorter) flushRun() error {
	s.sortResident()
	if s.cur == nil || s.cur.N == 0 {
		return nil
	}
	sf, err := s.mc.Dir.create("sort-run", s.mc.spillStats())
	if err != nil {
		return err
	}
	if err := writeBatchChunks(sf, s.cur); err != nil {
		return err
	}
	s.runs = append(s.runs, sf)
	s.mc.addRun()
	s.cur = nil
	s.mc.shrink(s.charged)
	s.charged = 0
	return nil
}

// writeBatchChunks frames a large batch in BatchSize pieces so readers
// never materialize more than one batch per frame.
func writeBatchChunks(sf *spillFile, b *Batch) error {
	if b.N <= BatchSize {
		return sf.WriteBatch(b)
	}
	sel := make([]int, 0, BatchSize)
	for off := 0; off < b.N; off += BatchSize {
		end := off + BatchSize
		if end > b.N {
			end = b.N
		}
		sel = sel[:0]
		for i := off; i < end; i++ {
			sel = append(sel, i)
		}
		chunk := b.Gather(sel)
		err := sf.WriteBatch(chunk)
		PutBatch(chunk)
		if err != nil {
			return err
		}
	}
	return nil
}

// Stream returns the sorted output as a batch stream: every row when
// unbounded; when bounded, at least the first limit rows (each spilled
// run adds up to limit more, which Result drops). The sorter must not
// receive further Adds.
func (s *ExternalSorter) Stream(ctx context.Context) (batchStream, error) {
	s.sortResident()
	if len(s.runs) == 0 {
		if s.cur == nil {
			return &memStream{}, nil
		}
		return &memStream{batches: []*Batch{s.cur}}, nil
	}
	streams := make([]batchStream, 0, len(s.runs)+1)
	for _, run := range s.runs {
		r, err := run.Reader()
		if err != nil {
			return nil, err
		}
		streams = append(streams, r)
	}
	if s.cur != nil && s.cur.N > 0 {
		streams = append(streams, &memStream{batches: []*Batch{s.cur}})
	}
	keys := s.keys
	return newMergeStream(streams, func(a *Batch, ai int, b *Batch, bi int) int {
		return crossCompare(a, ai, b, bi, keys)
	}), nil
}

// Result returns the sorted output as one batch of at most limit rows
// (every row when unbounded). The sorter must not receive further Adds;
// call Release afterwards to return its memory charge.
func (s *ExternalSorter) Result(ctx context.Context) (*Batch, error) {
	if len(s.runs) == 0 {
		s.sortResident()
		if s.cur == nil {
			return NewBatch(s.width), nil
		}
		out := s.cur
		s.cur = nil
		return out, nil
	}
	stream, err := s.Stream(ctx)
	if err != nil {
		return nil, err
	}
	out := NewBatch(s.width)
	for s.limit < 0 || int64(out.N) < s.limit {
		b, err := stream.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		err = out.Concat(b)
		PutBatch(b)
		if err != nil {
			return nil, err
		}
	}
	return TopN(out, s.limit), nil
}

// candHeap holds the top-N candidates in stable slots, so a slot found
// once stays valid while the heap reorders. ids is a max-heap of slot
// numbers: its root is the candidate that sorts last by (keys, arrival
// sequence), the next to be evicted. It is heapified once the slots reach
// the limit; until then it is unordered and never consulted.
type candHeap struct {
	keys  []plan.OrderKey
	limit int64
	slots []cand
	ids   []int
}

// after reports whether x sorts after y.
func (h *candHeap) after(x, y cand) bool {
	if c := crossCompare(x.b, x.row, y.b, y.row, h.keys); c != 0 {
		return c > 0
	}
	return x.seq > y.seq
}

// add appends a candidate while the heap is below the limit, heapifying
// when it reaches it.
func (h *candHeap) add(c cand) {
	h.ids = append(h.ids, len(h.slots))
	h.slots = append(h.slots, c)
	if int64(len(h.slots)) == h.limit {
		for i := len(h.ids)/2 - 1; i >= 0; i-- {
			h.down(i)
		}
	}
}

// down restores the heap below position i after slot ids[i] changed.
func (h *candHeap) down(i int) {
	n := len(h.ids)
	for {
		big := i
		if l := 2*i + 1; l < n && h.after(h.slots[h.ids[l]], h.slots[h.ids[big]]) {
			big = l
		}
		if r := 2*i + 2; r < n && h.after(h.slots[h.ids[r]], h.slots[h.ids[big]]) {
			big = r
		}
		if big == i {
			return
		}
		h.ids[i], h.ids[big] = h.ids[big], h.ids[i]
		i = big
	}
}

func (h *candHeap) reset() {
	h.slots = h.slots[:0]
	h.ids = h.ids[:0]
}
