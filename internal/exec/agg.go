package exec

import (
	"context"
	"fmt"

	"redshift/internal/hll"
	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// AggState is one aggregate's accumulator. States are mergeable, which is
// what makes aggregation two-phase: every slice folds its local rows into a
// state, the leader merges the per-slice states (§2.1: "intermediate
// results are sent back to the leader node for final aggregation").
type AggState interface {
	// Update folds one input value (already evaluated; never called for
	// COUNT(*), which uses UpdateRow).
	Update(v types.Value)
	// UpdateRow folds one row's existence (COUNT(*)).
	UpdateRow()
	// Merge folds another state of the same kind.
	Merge(o AggState)
	// Final produces the aggregate result.
	Final() types.Value
	// Size is the state's encoded size in bytes when shipped to the
	// leader, so gather-transfer accounting reflects what actually moves:
	// constant for linear aggregates, value-set-proportional for exact
	// distinct, constant-sketch for approximate distinct.
	Size() int64
}

// valueSize is the encoded width of one value in a shipped partial state.
func valueSize(v types.Value) int64 {
	if v.Null {
		return 1
	}
	if v.T == types.String {
		return int64(len(v.S)) + 4
	}
	return 8
}

// NewAggState builds the accumulator for a spec.
func NewAggState(spec plan.AggSpec) AggState {
	switch {
	case spec.Func == sql.FuncCount && spec.Approx:
		return &hllState{sk: hll.New()}
	case spec.Func == sql.FuncCount && spec.Distinct:
		return &distinctState{seen: map[string]struct{}{}}
	case spec.Func == sql.FuncCount:
		return &countState{}
	case spec.Func == sql.FuncSum && spec.T == types.Float64:
		return &sumFloatState{}
	case spec.Func == sql.FuncSum:
		return &sumIntState{}
	case spec.Func == sql.FuncAvg:
		return &avgState{}
	case spec.Func == sql.FuncMin:
		return &minMaxState{t: spec.T, min: true}
	case spec.Func == sql.FuncMax:
		return &minMaxState{t: spec.T}
	default:
		panic(fmt.Sprintf("exec: no aggregate state for %s", spec.Func))
	}
}

type countState struct{ n int64 }

func (s *countState) Update(v types.Value) {
	if !v.Null {
		s.n++
	}
}
func (s *countState) UpdateRow()         { s.n++ }
func (s *countState) Merge(o AggState)   { s.n += o.(*countState).n }
func (s *countState) Final() types.Value { return types.NewInt(s.n) }
func (s *countState) Size() int64        { return 8 }

type sumIntState struct {
	sum  int64
	seen bool
}

func (s *sumIntState) Update(v types.Value) {
	if !v.Null {
		s.sum += v.I
		s.seen = true
	}
}
func (s *sumIntState) UpdateRow() {}
func (s *sumIntState) Merge(o AggState) {
	so := o.(*sumIntState)
	s.sum += so.sum
	s.seen = s.seen || so.seen
}
func (s *sumIntState) Final() types.Value {
	if !s.seen {
		return types.NewNull(types.Int64)
	}
	return types.NewInt(s.sum)
}

func (s *sumIntState) Size() int64 { return 9 } // sum + seen flag

type sumFloatState struct {
	sum  float64
	seen bool
}

func (s *sumFloatState) Update(v types.Value) {
	if !v.Null {
		s.sum += v.AsFloat()
		s.seen = true
	}
}
func (s *sumFloatState) UpdateRow() {}
func (s *sumFloatState) Merge(o AggState) {
	so := o.(*sumFloatState)
	s.sum += so.sum
	s.seen = s.seen || so.seen
}
func (s *sumFloatState) Final() types.Value {
	if !s.seen {
		return types.NewNull(types.Float64)
	}
	return types.NewFloat(s.sum)
}

func (s *sumFloatState) Size() int64 { return 9 } // sum + seen flag

type avgState struct {
	sum float64
	n   int64
}

func (s *avgState) Update(v types.Value) {
	if !v.Null {
		s.sum += v.AsFloat()
		s.n++
	}
}
func (s *avgState) UpdateRow() {}
func (s *avgState) Merge(o AggState) {
	so := o.(*avgState)
	s.sum += so.sum
	s.n += so.n
}
func (s *avgState) Final() types.Value {
	if s.n == 0 {
		return types.NewNull(types.Float64)
	}
	return types.NewFloat(s.sum / float64(s.n))
}

func (s *avgState) Size() int64 { return 16 } // sum + count

type minMaxState struct {
	t    types.Type
	min  bool
	best types.Value
	seen bool
}

// Update keeps a detached copy of a new best string: the input's strings
// are slices of their blocks, which the state must not hold.
func (s *minMaxState) Update(v types.Value) {
	if v.Null {
		return
	}
	if s.seen {
		c := types.Compare(v, s.best)
		if s.min && c >= 0 || !s.min && c <= 0 {
			return
		}
	}
	s.best, s.seen = v.Detached(), true
}
func (s *minMaxState) UpdateRow() {}
func (s *minMaxState) Merge(o AggState) {
	so := o.(*minMaxState)
	if so.seen {
		s.Update(so.best)
	}
}
func (s *minMaxState) Final() types.Value {
	if !s.seen {
		return types.NewNull(s.t)
	}
	return s.best
}

func (s *minMaxState) Size() int64 {
	if !s.seen {
		return 1
	}
	return 1 + valueSize(s.best)
}

// distinctState implements exact COUNT(DISTINCT x) by shipping the distinct
// value set from slices to the leader. Exact distinct does not decompose
// into constant-size partials — which is precisely why §4 argues for
// "distributed approximate equivalents for all non-linear exact operations".
type distinctState struct {
	seen map[string]struct{}
}

func (s *distinctState) Update(v types.Value) {
	if v.Null {
		return
	}
	var a [32]byte
	k := appendValueKey(a[:0], v)
	if _, ok := s.seen[string(k)]; !ok {
		s.seen[string(k)] = struct{}{}
	}
}
func (s *distinctState) UpdateRow() {}
func (s *distinctState) Merge(o AggState) {
	for k := range o.(*distinctState).seen {
		s.seen[k] = struct{}{}
	}
}
func (s *distinctState) Final() types.Value { return types.NewInt(int64(len(s.seen))) }

// Size grows with the value set: exact distinct does not decompose into
// constant-size partials, and the accounting now shows that.
func (s *distinctState) Size() int64 {
	n := int64(8)
	for k := range s.seen {
		n += int64(len(k)) + 4
	}
	return n
}

// hllState implements APPROXIMATE COUNT(DISTINCT x) with a constant-size
// mergeable sketch.
type hllState struct {
	sk *hll.Sketch
}

func (s *hllState) Update(v types.Value) {
	if v.Null {
		return
	}
	var a [32]byte
	s.sk.AddBytes(appendValueKey(a[:0], v))
}
func (s *hllState) UpdateRow()         {}
func (s *hllState) Merge(o AggState)   { s.sk.Merge(o.(*hllState).sk) }
func (s *hllState) Final() types.Value { return types.NewInt(s.sk.Estimate()) }
func (s *hllState) Size() int64        { return s.sk.ByteSize() }

// group is one grouping key's accumulators.
type group struct {
	keys   []types.Value
	states []AggState
	mem    int64  // bytes currently charged to the tracker for this group
	batch  uint32 // the last Consume batch that touched the group; 0 = none
}

// Memory-accounting constants for hash aggregation: estimated heap cost
// beyond the shipped-state payload that AggState.Size reports. Validated
// against real allocation growth by TestAggAccountingTracksAllocation.
const (
	groupOverhead = 160 // map bucket + group struct + keys/states slice headers + order entry
	stateOverhead = 48  // interface header + allocator rounding per accumulator
	valueOverhead = 40  // boxed types.Value struct per group key
)

// groupMemBytes estimates the resident heap bytes of one group entry.
func groupMemBytes(grp *group) int64 {
	n := int64(groupOverhead) + int64(keyLen(grp.keys))
	for _, v := range grp.keys {
		n += valueOverhead + valueSize(v)
	}
	for _, st := range grp.states {
		n += stateOverhead + st.Size()
	}
	return n
}

// GroupTable is a hash-aggregation operator usable as both the partial
// (slice) and final (leader) phase.
type GroupTable struct {
	mode     Mode
	specs    []plan.AggSpec
	groupEvs []*Evaluator
	argEvs   []*Evaluator // aligned with specs; nil for COUNT(*)
	groups   map[string]*group
	order    []string // deterministic iteration

	mc      *MemContext // nil → ungoverned
	charged int64
	spill   *aggSpill
	depth   int // recursion depth when replaying a spilled partition

	key     []byte        // reused key-encoding buffer
	row     []types.Value // reused key values of a group being inserted
	batch   uint32        // Consume calls so far; stamps touched groups
	touched []*group      // groups the current batch updated
	slab    groupSlab
}

// groupSlab hands out group structs, key values and state slots from
// chunks, so a new group costs no allocation of its own. Chunks double from
// slabMinChunk up to slabMaxChunk groups: a table with a handful of groups
// reserves little, a big one allocates once per thousand groups.
type groupSlab struct {
	groups []group
	vals   []types.Value
	states []AggState
	chunk  int
}

const (
	slabMinChunk = 8
	slabMaxChunk = 1024
)

func (s *groupSlab) alloc(nkeys, nstates int) *group {
	if len(s.groups) == cap(s.groups) {
		s.chunk = min(max(2*s.chunk, slabMinChunk), slabMaxChunk)
		s.groups = make([]group, 0, s.chunk)
		s.vals = make([]types.Value, 0, s.chunk*nkeys)
		s.states = make([]AggState, 0, s.chunk*nstates)
	}
	s.groups = s.groups[:len(s.groups)+1]
	grp := &s.groups[len(s.groups)-1]
	nv, ns := len(s.vals), len(s.states)
	s.vals = s.vals[:nv+nkeys]
	s.states = s.states[:ns+nstates]
	grp.keys = s.vals[nv : nv+nkeys : nv+nkeys]
	grp.states = s.states[ns : ns+nstates : ns+nstates]
	return grp
}

// aggSpill holds the partition files of a spilled aggregation. Once the
// table overflows its grant, rows for keys not already resident are
// hash-partitioned to disk in raw input layout and re-aggregated
// partition by partition at drain time (partition-and-restart). Rows for
// resident keys keep updating in place, so every group still sees its
// rows in arrival order — the output is bit-identical to the in-memory
// plan at any budget.
type aggSpill struct {
	files []*spillFile
}

// SetMemory attaches the table to the query's memory governance. Must be
// called before Consume.
func (g *GroupTable) SetMemory(mc *MemContext) { g.mc = mc }

// Spilled reports whether any input rows were partitioned to disk.
func (g *GroupTable) Spilled() bool { return g.spill != nil }

// ReleaseMem returns every byte the table still has charged.
func (g *GroupTable) ReleaseMem() {
	g.mc.release()
	g.charged = 0
}

// NewGroupTable prepares a hash aggregation.
func NewGroupTable(mode Mode, groupBy []plan.Expr, specs []plan.AggSpec) (*GroupTable, error) {
	g := &GroupTable{
		mode:   mode,
		specs:  specs,
		groups: map[string]*group{},
	}
	for _, e := range groupBy {
		ev, err := NewEvaluator(mode, e)
		if err != nil {
			return nil, err
		}
		g.groupEvs = append(g.groupEvs, ev)
	}
	for _, spec := range specs {
		if spec.Arg == nil {
			g.argEvs = append(g.argEvs, nil)
			continue
		}
		ev, err := NewEvaluator(mode, spec.Arg)
		if err != nil {
			return nil, err
		}
		g.argEvs = append(g.argEvs, ev)
	}
	return g, nil
}

// Consume folds one batch of input rows. Group-state growth is charged
// against the query grant; the batch that would exceed it switches the
// table into spill mode, where rows for not-yet-resident keys are
// partitioned to scratch files instead of growing the hash table.
func (g *GroupTable) Consume(b *Batch) error {
	if b.N == 0 {
		return nil
	}
	keyVecs, err := evalAll(g.groupEvs, b)
	if err != nil {
		return err
	}
	argVecs, err := evalAll(g.argEvs, b)
	if err != nil {
		return err
	}
	g.batch++
	g.touched = g.touched[:0]
	var part []int // spill routing; allocated on first routed row
	for r := 0; r < b.N; r++ {
		g.key = appendRowKey(g.key[:0], keyVecs, r)
		grp, ok := g.groups[string(g.key)]
		if !ok {
			if g.spill != nil {
				// New key after overflow: defer the row to its partition.
				if part == nil {
					part = make([]int, b.N)
					for i := range part {
						part[i] = -1
					}
				}
				part[r] = spillPartition(g.key, g.depth)
				continue
			}
			g.row = g.row[:0]
			for _, v := range keyVecs {
				g.row = append(g.row, v.Get(r))
			}
			grp = g.insert(g.row)
			clear(g.row)
		}
		for i := range g.specs {
			if argVecs[i] == nil {
				grp.states[i].UpdateRow()
			} else {
				grp.states[i].Update(argVecs[i].Get(r))
			}
		}
		if grp.batch != g.batch {
			grp.batch = g.batch
			g.touched = append(g.touched, grp)
		}
	}
	if part != nil {
		if err := scatter(b, part, g.spill.files); err != nil {
			return err
		}
	}
	if g.mc == nil || g.mc.T == nil {
		return nil
	}
	var delta int64
	for _, grp := range g.touched {
		nb := groupMemBytes(grp)
		delta += nb - grp.mem
		grp.mem = nb
	}
	switch {
	case delta < 0:
		g.mc.shrink(-delta)
		g.charged += delta
	case delta > 0 && g.mc.tryGrow(delta):
		g.charged += delta
	case delta > 0:
		// Over the grant: resident groups stay (forced charge, they keep
		// absorbing their keys' rows in place), future new keys spill.
		if err := g.enterSpill(); err != nil {
			return err
		}
		g.mc.grow(delta)
		g.charged += delta
	}
	return nil
}

// enterSpill opens the partition files. At the recursion-depth cap (or
// without a scratch dir) it leaves spill mode off: the table keeps
// growing with forced charges instead.
func (g *GroupTable) enterSpill() error {
	if g.spill != nil || g.mc == nil || g.mc.Dir == nil || g.depth >= maxSpillDepth {
		return nil
	}
	sp := &aggSpill{files: make([]*spillFile, spillFanout)}
	for p := 0; p < spillFanout; p++ {
		f, err := g.mc.Dir.create(fmt.Sprintf("agg-d%d-p%d", g.depth, p), g.mc.spillStats())
		if err != nil {
			return err
		}
		sp.files[p] = f
	}
	g.mc.addPartitions(spillFanout)
	g.spill = sp
	return nil
}

func (g *GroupTable) lookup(keyRow []types.Value) *group {
	g.key = appendKey(g.key[:0], keyRow)
	grp, ok := g.groups[string(g.key)]
	if !ok {
		grp = g.insert(keyRow)
	}
	return grp
}

// insert adds the group whose key values are keyRow and whose encoded key
// is in g.key. The key string is materialized here, once per group, and
// the group's string key values are re-pointed into it so the table keeps
// no reference into its input batches.
func (g *GroupTable) insert(keyRow []types.Value) *group {
	k := string(g.key)
	grp := g.slab.alloc(len(keyRow), len(g.specs))
	copy(grp.keys, keyRow)
	internKeyStrings(k, grp.keys)
	for i, spec := range g.specs {
		grp.states[i] = NewAggState(spec)
	}
	g.groups[k] = grp
	g.order = append(g.order, k)
	return grp
}

// shadow builds the sub-table that re-aggregates one spilled partition,
// one level deeper so a still-too-big partition re-splits on a fresh
// hash.
func (g *GroupTable) shadow() *GroupTable {
	return &GroupTable{
		mode:     g.mode,
		specs:    g.specs,
		groupEvs: g.groupEvs,
		argEvs:   g.argEvs,
		groups:   map[string]*group{},
		mc:       g.mc,
		depth:    g.depth + 1,
	}
}

// Drain visits every group exactly once — resident groups in first-seen
// order, then each spilled partition re-aggregated through a shadow
// sub-table. Partition files are deleted as they are consumed; a table
// can be drained once.
func (g *GroupTable) Drain(ctx context.Context, fn func(k string, grp *group) error) error {
	return g.drain(ctx, fn, nil)
}

// drainCheckEvery is how many groups Drain visits between cancellation
// checks.
const drainCheckEvery = 1024

// drain is Drain with a hook: settle (may be nil) runs after the resident
// groups and after each spilled partition's groups were visited, before
// that partition's shadow table returns its memory.
func (g *GroupTable) drain(ctx context.Context, fn func(k string, grp *group) error, settle func()) error {
	for i, k := range g.order {
		if i%drainCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := fn(k, g.groups[k]); err != nil {
			return err
		}
	}
	if settle != nil {
		settle()
	}
	if g.spill == nil {
		return nil
	}
	for _, f := range g.spill.files {
		if f.Rows() == 0 {
			f.Discard()
			continue
		}
		sub := g.shadow()
		r, err := f.Reader()
		if err != nil {
			return err
		}
		for {
			b, err := r.Next(ctx)
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			err = sub.Consume(b)
			PutBatch(b)
			if err != nil {
				return err
			}
		}
		if err := sub.drain(ctx, fn, settle); err != nil {
			return err
		}
		g.mc.shrink(sub.charged)
		sub.charged = 0
		f.Discard()
	}
	return nil
}

// Merge folds another table's groups into g (the leader's final phase).
func (g *GroupTable) Merge(o *GroupTable) error {
	return g.MergeCtx(context.Background(), o)
}

// MergeCtx merges with cancellation, draining o's spilled partitions if
// it overflowed. Adopted groups are charged to g's tracker (forced: the
// leader merge works over shipped states, which cannot re-spill), in one
// charge per drained phase: o's resident groups, then each spilled
// partition.
func (g *GroupTable) MergeCtx(ctx context.Context, o *GroupTable) error {
	tracked := g.mc != nil && g.mc.T != nil
	var adopted int64 // bytes of adopted groups not yet charged
	settle := func() {
		g.mc.grow(adopted)
		g.charged += adopted
		adopted = 0
	}
	err := o.drain(ctx, func(k string, og *group) error {
		grp, ok := g.groups[k]
		if !ok {
			g.groups[k] = og
			g.order = append(g.order, k)
			og.batch = 0
			if tracked {
				og.mem = groupMemBytes(og)
				adopted += og.mem
			}
			return nil
		}
		for i := range grp.states {
			grp.states[i].Merge(og.states[i])
		}
		return nil
	}, settle)
	settle() // groups adopted before an error stay charged
	return err
}

// reserve sizes an empty table for at least n groups, so a leader merge
// does not regrow its map and order list group by group.
func (g *GroupTable) reserve(n int) {
	if len(g.groups) == 0 && n > 0 {
		g.groups = make(map[string]*group, n)
		g.order = make([]string, 0, n)
	}
}

// NumGroups returns the number of distinct grouping keys seen.
func (g *GroupTable) NumGroups() int { return len(g.groups) }

// StateBytes is the encoded size of the table's partial state — group keys
// plus accumulators — i.e. what a slice actually ships to the leader.
// Spilled partitions count at their on-disk size: those rows move to the
// leader too, just via re-aggregation at drain time.
func (g *GroupTable) StateBytes() int64 {
	var n int64
	for _, k := range g.order {
		grp := g.groups[k]
		for _, v := range grp.keys {
			n += valueSize(v)
		}
		for _, st := range grp.states {
			n += st.Size()
		}
	}
	if g.spill != nil {
		for _, f := range g.spill.files {
			n += f.Bytes()
		}
	}
	return n
}

// Result materializes the aggregate layout [group keys..., agg results...].
// A scalar aggregation (no GROUP BY) always yields exactly one row, even
// over empty input.
func (g *GroupTable) Result() (*Batch, error) {
	return g.ResultCtx(context.Background())
}

// ResultCtx materializes the result, draining spilled partitions.
func (g *GroupTable) ResultCtx(ctx context.Context) (*Batch, error) {
	if len(g.groupEvs) == 0 && len(g.groups) == 0 && g.spill == nil {
		g.lookup(nil)
	}
	width := len(g.groupEvs) + len(g.specs)
	out := NewBatch(width)
	for c := range out.Cols {
		out.Cols[c] = types.NewVector(g.colType(c), len(g.order))
	}
	n := 0
	err := g.Drain(ctx, func(_ string, grp *group) error {
		for c, v := range grp.keys {
			out.Cols[c].Append(v)
		}
		for i, st := range grp.states {
			out.Cols[len(grp.keys)+i].Append(st.Final())
		}
		n++
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.N = n
	return out, nil
}

func (g *GroupTable) colType(c int) types.Type {
	if c < len(g.groupEvs) {
		return exprVecType(g.groupEvs[c].expr)
	}
	return g.specs[c-len(g.groupEvs)].T
}
