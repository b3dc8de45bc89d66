package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"redshift/internal/catalog"
	"redshift/internal/cluster"
	"redshift/internal/exec"
	"redshift/internal/faults"
	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/telemetry"
	"redshift/internal/types"
)

// exchangeBuf is the per-(src,dst) slack of an exchange, in batches. Small
// on purpose: it is what bounds a query's in-flight memory to
// O(slices × pipeline depth) instead of O(intermediate result size).
const exchangeBuf = 2

// runSelect executes a SELECT: plan at the leader, per-slice parallel
// execution with strategy-appropriate data movement, final merge at the
// leader (§2.1's query processing flow).
func (db *Database) runSelect(ctx context.Context, sess *Session, s *sql.Select) (*Result, error) {
	if s.From == nil {
		return db.runLeaderSelect(s)
	}
	if isSystemTable(s.From.Table) {
		return db.runSystemSelect(ctx, s)
	}
	res, _, err := db.runSelectTraced(ctx, sess, s)
	return res, err
}

// classifyQueryErr folds a run error into its stl_query terminal state and
// a user-facing error. A context error is rewritten so the user sees why
// the query died ("cancelled on user request" / "statement timeout"), not
// a bare context.Canceled.
func classifyQueryErr(ctx context.Context, qid int64, err error) (string, error) {
	switch {
	case err == nil:
		return "success", nil
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout", fmt.Errorf("core: query %d aborted: statement timeout", qid)
	case errors.Is(err, context.Canceled):
		cause := context.Cause(ctx)
		if cause == nil || errors.Is(cause, context.Canceled) {
			cause = errors.New("context cancelled")
		}
		if errors.Is(cause, context.DeadlineExceeded) {
			return "timeout", fmt.Errorf("core: query %d aborted: statement timeout", qid)
		}
		return "cancelled", fmt.Errorf("core: query %d aborted: %v", qid, cause)
	default:
		return "error", err
	}
}

// runSelectTraced executes a data-plane SELECT through the staged
// lifecycle — normalize, result-cache lookup, bind/plan (cached), execute,
// result-cache store — and returns the result with its span tree (nil on a
// cache hit: nothing executed). Every run — including failed, cancelled
// and cache-served ones — is appended to the query log and counted in the
// metrics registry.
func (db *Database) runSelectTraced(ctx context.Context, sess *Session, s *sql.Select) (*Result, *telemetry.Span, error) {
	start := time.Now()
	// Stage 2: normalize. Rendering the AST canonicalizes whitespace,
	// comments, keyword case and redundant parens; the result is the
	// stl_query text and the key both caches share.
	norm := sql.Normalize(s)

	// Result-cache lookup runs before the timeout clock, the WLM queue and
	// the planner: a hit holds no slot, reads no blocks, runs no operator.
	cacheable := db.resultCacheable(sess, s)
	if cacheable {
		if res, ok := db.resultLookup(norm); ok {
			qid, _, cancel := db.registerQuery(ctx, norm)
			cancel(nil)
			db.unregisterQuery(qid)
			db.recordQuery(qid, norm, start, "", 0, 0, 0, res, nil, nil, "success", 0, 0)
			return res, nil, nil
		}
	}

	if d := sess.StatementTimeout(); d > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeout(ctx, d)
		defer cancelT()
	}
	qid, ctx, cancel := db.registerQuery(ctx, norm)
	defer cancel(nil)
	defer db.unregisterQuery(qid)

	// Stage 3: bind/plan, through the shared plan cache. Planning happens
	// BEFORE WLM admission — it is leader-side work that holds no slot, and
	// the plan's cost estimate is what routes short queries into the
	// fast-lane queue.
	trace := telemetry.StartSpan("query")
	planSpan := trace.StartChild("plan")
	planStart := time.Now()
	p, _, err := db.planFor(s, norm)
	planTime := time.Since(planStart)
	planSpan.End()
	if err != nil {
		trace.End()
		db.recordQuery(qid, norm, start, "", 0, planTime, 0, nil, trace, err, "error", 0, 0)
		return nil, trace, err
	}

	// WLM admission: the fast lane claims queries whose cost estimate is
	// under its threshold; otherwise the session's query_group names the
	// queue, else the default queue.
	queue := db.wlm.Route(sess.QueryGroup(), p.EstCost)
	ticket, err := db.wlm.AcquireQueueCtx(ctx, queue)
	if err != nil {
		// The slot was never acquired: nothing to release.
		trace.End()
		state := "evicted"
		if !IsQueueTimeout(err) {
			state, err = classifyQueryErr(ctx, qid, err)
			if state == "timeout" {
				// The query never started executing, so resending it is
				// always safe — unlike a mid-execution statement timeout, an
				// admission timeout is retryable.
				err = faults.MarkRetryable(err)
			}
		}
		db.recordQuery(qid, norm, start, queue, 0, planTime, 0, nil, trace, err, state, 0, 0)
		return nil, trace, err
	}
	defer db.wlm.ReleaseTicket(ticket)
	queueWait := ticket.Wait

	// Pin the referenced tables' data versions BEFORE taking the txn
	// snapshot (writers bump AFTER publishing): anything published after
	// this point either misses the snapshot too, or bumps a version and
	// invalidates the entry we are about to store. Either way a future
	// version-matched hit can never be staler than re-executing.
	var verKey []tableVersion
	if cacheable {
		verKey = db.captureTableVersions(p)
	}

	// Memory governance: the query's grant comes from work_mem (session
	// override) or the admitting queue's per-slot budget; the tracker
	// charges blocking operators against it and the scratch dir receives
	// their spills. The deferred cleanup runs on EVERY exit — success,
	// error, cancel, timeout — so scratch files never outlive the query and
	// exec_mem_bytes returns to zero.
	grant := sess.memBudgetFor(ticket.Grant)
	mem := exec.NewMemTracker(grant, db.metrics.Gauge("exec_mem_bytes"))
	spillDir := exec.NewSpillDir(db.spillBase(), fmt.Sprintf("query-%d", qid))
	defer func() {
		mem.ReleaseAll()
		spillDir.Cleanup()
	}()
	db.attachQueryMem(qid, mem, spillDir, grant)

	q := &queryRun{
		db:       db,
		p:        p,
		mode:     db.cfg.Mode,
		snapshot: db.txm.CurrentXid(),
		scans:    &exec.ScanStats{},
		qid:      qid,
		reqDOP:   sess.maxParallel.Load(),
		trace:    trace,
		mem:      mem,
		spillDir: spillDir,
	}
	netBefore := db.cl.NetBytes()
	execStart := time.Now()
	final, err := q.execute(ctx)
	execTime := time.Since(execStart)
	trace.End()
	db.metrics.Counter("query_retries_total").Add(q.scans.Retries.Load())
	db.metrics.Counter("failover_reads_total").Add(q.scans.FailoverReads.Load())
	if err != nil {
		state, err := classifyQueryErr(ctx, qid, err)
		db.recordQuery(qid, norm, start, ticket.Queue, queueWait, planTime, execTime, nil, trace, err, state, mem.Peak(), spillDir.Bytes())
		return nil, trace, err
	}
	res := &Result{
		Schema: p.Schema(),
		Stats: ExecStats{
			BlocksRead:    q.scans.BlocksRead.Load(),
			BlocksSkipped: q.scans.BlocksSkipped.Load(),
			RowsScanned:   q.scans.RowsRead.Load(),
			NetBytes:      db.cl.NetBytes() - netBefore,
			PlanTime:      planTime,
			QueueWait:     queueWait,
			ExecTime:      execTime,
			Queue:         ticket.Queue,
		},
	}
	for i := 0; i < final.N; i++ {
		res.Rows = append(res.Rows, final.Row(i))
	}
	// Result rows outlive the statement (the caller, the result cache), so
	// they must not hold the blocks their strings were decoded from.
	types.DetachRows(res.Rows)
	if cacheable {
		db.resultStore(norm, res, verKey)
	}
	db.recordQuery(qid, norm, start, ticket.Queue, queueWait, planTime, execTime, res, trace, nil, "success", mem.Peak(), spillDir.Bytes())
	return res, trace, nil
}

// recordQuery appends one finished SELECT to the query log and emits its
// counters into the registry. sqlText is the normalized statement; queue is
// the WLM queue that admitted (or evicted) it, "" for cache hits.
func (db *Database) recordQuery(qid int64, sqlText string, start time.Time, queue string, queueWait, planTime, execTime time.Duration, res *Result, trace *telemetry.Span, runErr error, state string, memPeak, spillBytes int64) {
	rec := telemetry.QueryRecord{
		ID:         qid,
		SQL:        sqlText,
		Start:      start,
		End:        time.Now(),
		Queue:      queue,
		QueueWait:  queueWait,
		PlanTime:   planTime,
		ExecTime:   execTime,
		State:      state,
		Trace:      trace,
		MemPeak:    memPeak,
		SpillBytes: spillBytes,
	}
	if res != nil {
		rec.Rows = int64(len(res.Rows))
		rec.BlocksRead = res.Stats.BlocksRead
		rec.BlocksSkipped = res.Stats.BlocksSkipped
		rec.RowsScanned = res.Stats.RowsScanned
		rec.NetBytes = res.Stats.NetBytes
	}
	if runErr != nil {
		rec.Error = runErr.Error()
	}
	db.qlog.Append(rec)

	m := db.metrics
	m.Counter("query_total").Inc()
	m.Gauge("exec_mem_peak").Set(memPeak)
	if spillBytes > 0 {
		m.Counter("spill_bytes_total").Add(spillBytes)
		m.Counter("spilled_queries_total").Inc()
	}
	if runErr != nil {
		switch state {
		case "cancelled":
			m.Counter("query_cancelled_total").Inc()
		case "timeout":
			m.Counter("query_timeout_total").Inc()
		case "evicted":
			m.Counter("query_evicted_total").Inc()
		default:
			m.Counter("query_errors_total").Inc()
		}
		return
	}
	m.Counter("query_blocks_read_total").Add(rec.BlocksRead)
	m.Counter("query_blocks_skipped_total").Add(rec.BlocksSkipped)
	m.Counter("query_rows_scanned_total").Add(rec.RowsScanned)
	m.Histogram("query_seconds").Observe(time.Since(start).Seconds())
	m.Histogram("query_plan_seconds").Observe(planTime.Seconds())
	m.Histogram("query_queue_seconds").Observe(queueWait.Seconds())

	cs := db.cache.Stats()
	m.Gauge("block_cache_hits").Set(cs.Hits)
	m.Gauge("block_cache_misses").Set(cs.Misses)
	m.Gauge("block_cache_evictions").Set(cs.Evictions)
	m.Gauge("block_cache_bytes").Set(cs.Bytes)
	m.Gauge("block_cache_budget_bytes").Set(cs.Budget)

	pcs := db.planCache.Stats()
	m.Gauge("plan_cache_hits").Set(pcs.Hits)
	m.Gauge("plan_cache_misses").Set(pcs.Misses)
	m.Gauge("plan_cache_evictions").Set(pcs.Evictions)
	m.Gauge("plan_cache_invalidations").Set(pcs.Invalidations)
	m.Gauge("plan_cache_entries").Set(pcs.Entries)
	rcs := db.resultCache.Stats()
	m.Gauge("result_cache_hits").Set(rcs.Hits)
	m.Gauge("result_cache_misses").Set(rcs.Misses)
	m.Gauge("result_cache_evictions").Set(rcs.Evictions)
	m.Gauge("result_cache_invalidations").Set(rcs.Invalidations)
	m.Gauge("result_cache_entries").Set(rcs.Entries)
	m.Gauge("result_cache_bytes").Set(rcs.Used)
}

// runLeaderSelect evaluates a FROM-less SELECT entirely at the leader —
// the connection-test queries every driver sends (SELECT 1).
func (db *Database) runLeaderSelect(s *sql.Select) (*Result, error) {
	if s.Distinct || len(s.GroupBy) > 0 || s.Having != nil || len(s.Joins) > 0 {
		return nil, fmt.Errorf("core: clauses other than the select list need a FROM table")
	}
	res := &Result{}
	var row types.Row
	for _, item := range s.Items {
		if item.Star {
			return nil, fmt.Errorf("core: SELECT * needs a FROM table")
		}
		bound, err := plan.BindScalar(item.Expr)
		if err != nil {
			return nil, err
		}
		v, err := exec.EvalRow(bound, nil)
		if err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			name = strings.ToLower(item.Expr.String())
		}
		res.Schema.Columns = append(res.Schema.Columns, types.Column{Name: name, Type: bound.Type()})
		row = append(row, v)
	}
	if s.Limit != 0 {
		res.Rows = []types.Row{row}
	}
	return res, nil
}

// queryRun carries one SELECT's execution state.
type queryRun struct {
	db       *Database
	p        *plan.Plan
	mode     exec.Mode
	snapshot int64
	scans    *exec.ScanStats
	// qid is the stl_query id (0 for system-table queries); reqDOP is the
	// session's SET max_parallel_workers override (-1 = automatic).
	qid    int64
	reqDOP int64
	// trace is the query's span tree root; nil disables tracing (all span
	// methods are nil-safe).
	trace *telemetry.Span
	// sys, when set, resolves scans from materialized in-memory rows: the
	// system-table path, which runs leader-only on one "slice".
	sys map[*catalog.TableDef][]types.Row

	// Execution state, built by execute(). stats/scanInsts/exBytes are
	// indexed/keyed by physical node ID.
	ph        *plan.Physical
	flight    *exec.FlightTracker
	stats     []*exec.OpStats
	scanInsts [][]scanInstance
	exs       map[int]*exec.Exchange
	exBytes   map[int]*atomic.Int64
	prods     []producer
	aggTables []*exec.GroupTable
	aggGroups []int64 // per-slice group counts, snapshotted before the merge
	// gatherBytes totals the bytes shipped to the leader (merge span attr).
	gatherBytes atomic.Int64

	// dop is the chosen intra-slice parallelism; par carries its live
	// counters (nil when dop==1). chainMu guards the lazily built
	// nodeMem/nodeSpill/scanInsts state, which parallel slices touch from
	// their own goroutines (the serial path builds chains on the driving
	// goroutine and never contends).
	dop     int
	par     *parallelStats
	chainMu sync.Mutex

	// Memory governance (nil for system-table queries, which run
	// leader-only over already-materialized rows).
	mem       *exec.MemTracker
	spillDir  *exec.SpillDir
	leaderAgg *exec.GroupTable
	nodeMem   map[int]*exec.MemTracker
	nodeSpill map[int]*exec.SpillStats
}

// memCtx hands an operator instance its memory context: a fresh child of
// the physical node's tracker (so EXPLAIN ANALYZE gets per-node peaks and
// each instance's Close releases only its own charges), plus the query
// scratch dir and the node's spill stats. chainMu makes the lazy per-node
// map init safe from parallel slice goroutines.
func (q *queryRun) memCtx(n *plan.PhysNode) *exec.MemContext {
	if q.mem == nil || n == nil {
		return nil
	}
	q.chainMu.Lock()
	defer q.chainMu.Unlock()
	if q.nodeMem == nil {
		q.nodeMem = map[int]*exec.MemTracker{}
		q.nodeSpill = map[int]*exec.SpillStats{}
	}
	nt, ok := q.nodeMem[n.ID]
	if !ok {
		nt = q.mem.Child()
		q.nodeMem[n.ID] = nt
		q.nodeSpill[n.ID] = &exec.SpillStats{}
	}
	return &exec.MemContext{T: nt.Child(), Dir: q.spillDir, Stats: q.nodeSpill[n.ID]}
}

// scanInstance is one slice's instantiation of a physical scan node; its
// counters fold into the query totals and stv_slice_stats after the run.
type scanInstance struct {
	// slice is the slice whose storage this instance read (for a replicated
	// build table, the node's home slice — every slice of the node reads the
	// same local copy, as the old executor did).
	slice int
	stats *exec.ScanStats
}

// producer is one deferred Exchange.Produce call: src's sub-chain routed
// into an exchange. Producers launch after every chain is built. When par
// is set the producer runs morsel-parallel (ParallelProduce) instead of
// driving a serial operator chain.
type producer struct {
	ex    *exec.Exchange
	src   int
	op    exec.Operator
	route exec.RouteFn
	par   *parallelScanSrc
}

// parallelScanSrc is a morsel-parallel scan producer: dop scanners
// sharing one ScanStats pull from a block queue, and the sends are
// re-sequenced into serial order.
type parallelScanSrc struct {
	node     *plan.PhysNode
	queue    *exec.MorselQueue
	scanners []*exec.Scanner
}

// numSlices returns the execution width: every slice for data-plane
// queries, a single leader slice for system-table queries.
func (q *queryRun) numSlices() int {
	if q.sys != nil {
		return 1
	}
	return q.db.cl.NumSlices()
}

// execute lowers the plan to its physical operator tree and runs it as a
// streaming dataflow: ONE goroutine per slice drives that slice's fused
// operator chain batch-at-a-time (plus one goroutine per exchange
// producer), so intermediate results are never materialized between stages
// — peak live batches are O(slices × pipeline depth), bounded by the
// exchange buffers and one outstanding batch per operator.
func (q *queryRun) execute(ctx context.Context) (*exec.Batch, error) {
	nslices := q.numSlices()
	q.ph = plan.BuildPhysical(q.p)
	q.stats = make([]*exec.OpStats, len(q.ph.Nodes))
	for i := range q.stats {
		q.stats[i] = &exec.OpStats{}
	}
	q.scanInsts = make([][]scanInstance, len(q.ph.Nodes))
	q.exs = map[int]*exec.Exchange{}
	q.exBytes = map[int]*atomic.Int64{}
	m := q.db.metrics
	q.flight = exec.NewFlightTracker(m.Gauge("exec_batches_in_flight"))

	// Intra-slice parallelism: pick the query's DOP before any producer or
	// chain is built, and publish it for stv_exec_workers.
	q.dop = q.chooseDOP()
	if q.sys == nil {
		q.par = &parallelStats{dop: q.dop}
		if q.qid > 0 {
			q.db.attachQueryExec(q.qid, q.par)
		}
	}

	// perSlice accumulates the gather stream; every batch parked here is
	// counted in flight and released in the deferred cleanup below (the
	// final output batch is always a fresh leader-side materialization,
	// never a gathered batch, so releasing all of them is safe).
	perSlice := make([][]*exec.Batch, nslices)
	defer func() {
		// By the time any return runs, every producer and consumer has been
		// joined (or never launched), so draining the exchange buffers is
		// safe — it retires the batches an early stop (error, cancel,
		// timeout) parked in flight, keeping exec_batches_in_flight at zero
		// between queries. The gathered leader-side batches are returned to
		// the pool the same way.
		for _, ex := range q.exs {
			ex.Drain()
		}
		for _, bs := range perSlice {
			for _, b := range bs {
				q.flight.Dec()
				exec.PutBatch(b)
			}
		}
		q.foldScanStats()
		if q.par != nil {
			m.Counter("morsels_dispatched_total").Add(q.par.morsels.Load())
		}
		m.Gauge("exec_batches_in_flight_peak").Set(q.flight.HighWater())
		q.emitSpans()
	}()

	// Exchanges and their build-side producers are shared across consumer
	// slices, so they are created once, before the per-slice chains.
	for ji := range q.ph.Joins {
		pj := &q.ph.Joins[ji]
		step := &q.p.Joins[ji]
		if pj.ProbeEx != nil {
			q.newExchange(pj.ProbeEx, nslices)
		}
		if pj.BuildEx == nil {
			continue
		}
		ex := q.newExchange(pj.BuildEx, nslices)
		var route exec.RouteFn
		var err error
		if pj.BuildEx.ExKind == plan.ExchangeBroadcast {
			route = exec.BroadcastRoute(nslices)
		} else {
			route, err = exec.NewShuffleRouter(q.mode, step.RightKeys, nslices)
			if err != nil {
				return nil, err
			}
		}
		for src := 0; src < nslices; src++ {
			if q.dop > 1 {
				ps, err := q.parallelScanSrc(pj.BuildScan, src)
				if err != nil {
					return nil, err
				}
				q.prods = append(q.prods, producer{ex: ex, src: src, route: route, par: ps})
				continue
			}
			op, err := q.scanOp(pj.BuildScan, src)
			if err != nil {
				return nil, err
			}
			q.prods = append(q.prods, producer{ex: ex, src: src, op: op, route: route})
		}
	}

	if q.p.HasAgg {
		q.aggTables = make([]*exec.GroupTable, nslices)
		q.aggGroups = make([]int64, nslices)
	}
	chains := make([]exec.Operator, nslices)
	if q.dop <= 1 {
		for sl := 0; sl < nslices; sl++ {
			var err error
			chains[sl], err = q.buildChain(sl, nslices)
			if err != nil {
				return nil, err
			}
		}
	}

	var prodWG sync.WaitGroup
	for _, pr := range q.prods {
		prodWG.Add(1)
		go func(pr producer) {
			defer prodWG.Done()
			if pr.par != nil {
				exec.ParallelProduce(ctx, pr.ex, pr.src, pr.par.queue, pr.par.scanners, pr.route, q.stats[pr.par.node.ID], &q.par.morsels)
			} else {
				pr.ex.Produce(ctx, pr.src, pr.op, pr.route)
			}
		}(pr)
	}

	errs := make([]error, nslices)
	var wg sync.WaitGroup
	for sl := 0; sl < nslices; sl++ {
		wg.Add(1)
		go func(sl int) {
			defer wg.Done()
			var sink func(*exec.Batch) error
			if !q.p.HasAgg {
				// Collecting a batch at the leader is the gather transfer.
				// Parked batches are flight-tracked until the deferred
				// release; empties carry nothing and go straight back to
				// the pool (the leader phase skips them anyway).
				node := q.db.cl.Slice(sl).Node.ID
				sink = func(b *exec.Batch) error {
					if b.N == 0 {
						exec.PutBatch(b)
						return nil
					}
					sz := b.ByteSize()
					q.account(node, -1, sz, cluster.TransferGather)
					q.gatherBytes.Add(sz)
					q.flight.Inc()
					perSlice[sl] = append(perSlice[sl], b)
					return nil
				}
			}
			var err error
			if q.dop > 1 {
				err = q.runParallelSlice(ctx, sl, nslices, sink)
			} else {
				err = driveChain(ctx, chains[sl], sink)
			}
			if err != nil {
				errs[sl] = err
				// Unblock every producer and consumer parked on an exchange.
				q.abortExchanges(err)
			}
		}(sl)
	}
	wg.Wait()
	prodWG.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Leader phase: the final merge runs as one more instrumented chain.
	var root exec.Operator
	if q.p.HasAgg {
		for sl, gt := range q.aggTables {
			q.aggGroups[sl] = int64(gt.NumGroups())
		}
		ship := func(sl int, t *exec.GroupTable) {
			// Partial-state shipping accounts the real encoded state size.
			shipped := t.StateBytes()
			q.account(q.db.cl.Slice(sl).Node.ID, -1, shipped, cluster.TransferGather)
			q.gatherBytes.Add(shipped)
		}
		leaderGt, err := exec.NewGroupTable(q.mode, q.p.GroupBy, q.p.Aggs)
		if err != nil {
			return nil, err
		}
		leaderGt.SetMemory(q.memCtx(q.ph.LeaderAgg))
		q.leaderAgg = leaderGt
		root = q.wrap(exec.NewGroupMergeOp(leaderGt, q.aggTables, ship), q.ph.LeaderAgg)
		if q.ph.Having != nil {
			f, err := exec.NewFilterOp(q.mode, q.p.Having, root)
			if err != nil {
				return nil, err
			}
			root = q.wrap(f, q.ph.Having)
		}
		proj, err := exec.NewProjectOp(q.mode, q.p.Project, root)
		if err != nil {
			return nil, err
		}
		root = q.wrap(proj, q.ph.Project)
	} else {
		root = q.wrap(exec.NewLeaderMergeOp(perSlice, q.p.OrderBy, q.p.SliceTopN()), q.ph.Merge)
	}
	fin := exec.NewFinalizeOp(root, q.p.Distinct, q.p.OrderBy, q.p.Limit, len(q.p.Project))
	fin.SetMemory(q.memCtx(q.ph.Finalize))
	root = q.wrap(fin, q.ph.Finalize)

	var final *exec.Batch
	err := driveChain(ctx, root, func(b *exec.Batch) error {
		if final == nil {
			final = b
			return nil
		}
		return final.Concat(b)
	})
	if err != nil {
		return nil, err
	}
	if final == nil {
		final = exec.NewBatch(len(q.p.Project))
	}
	return final, nil
}

// buildChain assembles slice sl's fused operator chain from the physical
// plan: scan through (joins, filter) into either the slice's partial
// aggregation or its projection tail. Every operator is wrapped with the
// instrumentation that feeds per-operator stats and the in-flight gauge.
func (q *queryRun) buildChain(sl, nslices int) (exec.Operator, error) {
	ph := q.ph
	spn := q.db.cl.Config().SlicesPerNode

	cur, err := q.baseScanOp(sl)
	if err != nil {
		return nil, err
	}

	for ji := range ph.Joins {
		pj := &ph.Joins[ji]
		step := &q.p.Joins[ji]
		right := q.p.Tables[step.Right]
		if pj.ProbeEx != nil {
			// DS_DIST_BOTH: this slice's accumulated chain becomes a shuffle
			// producer, and the chain continues from the exchange's output.
			ex := q.exs[pj.ProbeEx.ID]
			route, err := exec.NewShuffleRouter(q.mode, step.LeftKeys, nslices)
			if err != nil {
				return nil, err
			}
			q.prods = append(q.prods, producer{ex: ex, src: sl, op: cur, route: route})
			cur = q.wrap(exec.NewRecvOp(ex, sl), pj.ProbeEx)
		}
		var build exec.Operator
		switch {
		case pj.BuildEx != nil:
			build = q.wrap(exec.NewRecvOp(q.exs[pj.BuildEx.ID], sl), pj.BuildEx)
		case step.Strategy == plan.StrategyBroadcast && right.Def.DistStyle == catalog.DistAll:
			// Already replicated: every slice reads its node's local copy.
			build, err = q.scanOp(pj.BuildScan, (sl/spn)*spn)
		default: // collocated
			build, err = q.scanOp(pj.BuildScan, sl)
		}
		if err != nil {
			return nil, err
		}
		join, err := exec.NewHashJoin(q.mode, *step, len(right.Def.Columns))
		if err != nil {
			return nil, err
		}
		join.SetMemory(q.memCtx(pj.Probe))
		join.SetSizeHint(ph.BuildDemand(ji, nslices))
		cur = q.wrap(exec.NewHashJoinOp(join, build, cur), pj.Probe)
	}

	if ph.Where != nil {
		f, err := exec.NewFilterOp(q.mode, q.p.Where, cur)
		if err != nil {
			return nil, err
		}
		cur = q.wrap(f, ph.Where)
	}
	return q.chainTail(cur, sl)
}

// chainTail finishes a slice chain past the filter stage: the slice's
// partial aggregation, or the projection with its optional distinct and
// top-N pushdowns. Shared by the serial chain builder and the parallel
// path's spilled-join fallback.
func (q *queryRun) chainTail(cur exec.Operator, sl int) (exec.Operator, error) {
	ph := q.ph
	if q.p.HasAgg {
		gt, err := exec.NewGroupTable(q.mode, q.p.GroupBy, q.p.Aggs)
		if err != nil {
			return nil, err
		}
		gt.SetMemory(q.memCtx(ph.PartialAgg))
		q.aggTables[sl] = gt
		return q.wrap(exec.NewPartialAggOp(gt, cur), ph.PartialAgg), nil
	}

	proj, err := exec.NewProjectOp(q.mode, q.p.Project, cur)
	if err != nil {
		return nil, err
	}
	cur = q.wrap(proj, ph.Project)
	if ph.Distinct != nil {
		cur = q.wrap(exec.NewStreamDistinctOp(cur), ph.Distinct)
	}
	if ph.TopN != nil {
		topn := exec.NewTopNOp(cur, q.p.OrderBy, q.p.Limit, len(q.p.Project))
		topn.SetMemory(q.memCtx(ph.TopN))
		cur = q.wrap(topn, ph.TopN)
	}
	return cur, nil
}

// scanOp builds one slice's scan of a physical scan node, reading
// statSlice's visible segments and registering the instance for post-run
// stats folding.
func (q *queryRun) scanOp(n *plan.PhysNode, statSlice int) (exec.Operator, error) {
	if q.sys != nil {
		op, err := q.sysScanOp(n)
		if err != nil {
			return nil, err
		}
		return q.wrap(op, n), nil
	}
	local := &exec.ScanStats{}
	q.addScanInst(n, statSlice, local)
	sc, err := exec.NewScanner(q.mode, n.Scan, q.db.cl.FetchBlockCtx, local)
	if err != nil {
		return nil, err
	}
	sc.SetCache(q.db.cache)
	sc.SetFaults(q.db.inj)
	segs := q.db.cl.VisibleSegments(statSlice, n.Scan.Def.ID, q.snapshot)
	return q.wrap(exec.NewScanOp(sc, segs), n), nil
}

// addScanInst registers one slice's scan instance for post-run stats
// folding; locked because parallel slices register from their own
// goroutines.
func (q *queryRun) addScanInst(n *plan.PhysNode, statSlice int, stats *exec.ScanStats) {
	q.chainMu.Lock()
	q.scanInsts[n.ID] = append(q.scanInsts[n.ID], scanInstance{slice: statSlice, stats: stats})
	q.chainMu.Unlock()
}

// sysScanOp materializes a system table's rows and applies the pushed-down
// filter; system queries run leader-only against in-memory rows.
func (q *queryRun) sysScanOp(n *plan.PhysNode) (exec.Operator, error) {
	scan := n.Scan
	schema := make([]types.Type, len(scan.Def.Columns))
	for i, c := range scan.Def.Columns {
		schema[i] = c.Type
	}
	b := exec.FromRows(schema, q.sys[scan.Def])
	f, err := exec.NewFilter(q.mode, scan.Filter)
	if err != nil {
		return nil, err
	}
	if b, err = f.Apply(b); err != nil {
		return nil, err
	}
	if b.N == 0 {
		return exec.NewBatchSource(nil), nil
	}
	return exec.NewBatchSource([]*exec.Batch{b}), nil
}

// newExchange creates the shared exchange behind one physical movement
// node, wiring transfer accounting and cross-node byte attribution in.
func (q *queryRun) newExchange(n *plan.PhysNode, nslices int) *exec.Exchange {
	bytes := &atomic.Int64{}
	q.exBytes[n.ID] = bytes
	kind := cluster.TransferShuffle
	if n.ExKind == plan.ExchangeBroadcast {
		kind = cluster.TransferBroadcast
	}
	account := func(src, dst int, b *exec.Batch) {
		srcNode := q.db.cl.Slice(src).Node.ID
		dstNode := q.db.cl.Slice(dst).Node.ID
		sz := b.ByteSize()
		q.account(srcNode, dstNode, sz, kind)
		if srcNode != dstNode {
			bytes.Add(sz)
		}
	}
	ex := exec.NewExchange(nslices, exchangeBuf, account, q.flight)
	ex.SetFaults(q.db.inj)
	q.exs[n.ID] = ex
	return ex
}

// wrap decorates op with the physical node's shared stats and the query's
// in-flight tracker.
func (q *queryRun) wrap(op exec.Operator, n *plan.PhysNode) exec.Operator {
	return exec.Instrument(op, q.stats[n.ID], q.flight)
}

// abortExchanges fails every exchange so no producer or consumer stays
// parked on a channel after an error elsewhere in the dataflow.
func (q *queryRun) abortExchanges(err error) {
	for _, ex := range q.exs {
		ex.Abort(err)
	}
}

// driveChain runs one operator chain to exhaustion, feeding each emitted
// batch to sink (which may be nil). Cancellation is checked once per
// batch, so an aborted query unwinds within one batch boundary even when
// no leaf operator blocks.
func driveChain(ctx context.Context, op exec.Operator, sink func(*exec.Batch) error) error {
	if err := op.Open(ctx); err != nil {
		op.Close()
		return err
	}
	for {
		if err := ctx.Err(); err != nil {
			op.Close()
			return err
		}
		b, err := op.Next(ctx)
		if err != nil {
			op.Close()
			return err
		}
		if b == nil {
			break
		}
		if sink != nil {
			if err := sink(b); err != nil {
				op.Close()
				return err
			}
		}
	}
	return op.Close()
}

// account records cross-node traffic for data-plane queries; system-table
// queries run leader-only, so their batch movement is not network traffic.
func (q *queryRun) account(fromNode, toNode int, bytes int64, kind cluster.TransferKind) {
	if q.sys == nil {
		q.db.cl.AccountTransfer(fromNode, toNode, bytes, kind)
	}
}

// foldScanStats merges every scan instance's counters into the query-wide
// totals and the owning slice's cumulative stv_slice_stats counters.
func (q *queryRun) foldScanStats() {
	if q.sys != nil {
		return
	}
	for _, insts := range q.scanInsts {
		for _, inst := range insts {
			br := inst.stats.BlocksRead.Load()
			bs := inst.stats.BlocksSkipped.Load()
			rr := inst.stats.RowsRead.Load()
			by := inst.stats.BytesRead.Load()
			q.scans.BlocksRead.Add(br)
			q.scans.BlocksSkipped.Add(bs)
			q.scans.RowsRead.Add(rr)
			q.scans.RowsEmitted.Add(inst.stats.RowsEmitted.Load())
			q.scans.PageFaults.Add(inst.stats.PageFaults.Load())
			q.scans.BytesRead.Add(by)
			q.scans.CacheHits.Add(inst.stats.CacheHits.Load())
			q.scans.CacheMisses.Add(inst.stats.CacheMisses.Load())
			q.scans.Retries.Add(inst.stats.Retries.Load())
			q.scans.FailoverReads.Add(inst.stats.FailoverReads.Load())

			st := &q.db.sliceStats[inst.slice]
			st.scans.Add(1)
			st.blocksRead.Add(br)
			st.blocksSkipped.Add(bs)
			st.rowsRead.Add(rr)
			st.bytesRead.Add(by)
		}
	}
}

// emitSpans reconstructs the query's trace tree from the per-operator
// stats the instrumenting wrappers collected: one span per physical node
// (duration = cumulative operator time across its slice instances), with
// per-slice children carrying scan block counters and partial-agg group
// counts.
func (q *queryRun) emitSpans() {
	if q.trace == nil {
		return
	}
	for _, n := range q.ph.Nodes {
		sp := q.trace.StartChild(n.SpanName())
		st := q.stats[n.ID]
		sp.Add("rows", st.Rows.Load())
		if n.EstRows >= 0 {
			sp.Add("est_rows", n.EstRows)
		}
		sp.Add("batches", st.Batches.Load())
		switch n.Kind {
		case plan.PhysScan:
			if n == q.ph.Base && q.sys == nil {
				sp.Add("dop", int64(q.dop))
			}
			// Parallel slices register their instances in completion order;
			// render in slice order so traces compare across runs.
			sort.Slice(q.scanInsts[n.ID], func(a, b int) bool {
				return q.scanInsts[n.ID][a].slice < q.scanInsts[n.ID][b].slice
			})
			for _, inst := range q.scanInsts[n.ID] {
				child := sp.StartChild(fmt.Sprintf("slice %d", inst.slice))
				child.Add("rows", inst.stats.RowsRead.Load())
				child.Add("blocks_read", inst.stats.BlocksRead.Load())
				child.Add("blocks_skipped", inst.stats.BlocksSkipped.Load())
				child.Add("bytes", inst.stats.BytesRead.Load())
				child.Add("cache_hits", inst.stats.CacheHits.Load())
				child.Add("cache_misses", inst.stats.CacheMisses.Load())
				if r := inst.stats.Retries.Load(); r > 0 {
					child.Add("retries", r)
				}
				if f := inst.stats.FailoverReads.Load(); f > 0 {
					child.Add("failover_reads", f)
				}
				child.SetDuration(0)
				sp.Add("blocks_read", inst.stats.BlocksRead.Load())
				sp.Add("blocks_skipped", inst.stats.BlocksSkipped.Load())
				sp.Add("bytes", inst.stats.BytesRead.Load())
				sp.Add("cache_hits", inst.stats.CacheHits.Load())
				sp.Add("cache_misses", inst.stats.CacheMisses.Load())
				if r := inst.stats.Retries.Load(); r > 0 {
					sp.Add("retries", r)
				}
				if f := inst.stats.FailoverReads.Load(); f > 0 {
					sp.Add("failover_reads", f)
				}
			}
		case plan.PhysPartialAgg:
			for sl := range q.aggGroups {
				child := sp.StartChild(fmt.Sprintf("slice %d", sl))
				child.Add("groups", q.aggGroups[sl])
				child.SetDuration(0)
			}
		case plan.PhysLeaderAgg:
			sp.Add("bytes", q.gatherBytes.Load())
			if q.leaderAgg != nil {
				sp.Add("groups", int64(q.leaderAgg.NumGroups()))
			} else if len(q.aggTables) > 0 && q.aggTables[0] != nil {
				sp.Add("groups", int64(q.aggTables[0].NumGroups()))
			}
		case plan.PhysLeaderMerge:
			sp.Add("bytes", q.gatherBytes.Load())
		case plan.PhysExchange:
			if c := q.exBytes[n.ID]; c != nil {
				sp.Add("bytes", c.Load())
			}
		}
		// Memory-governance attrs for the blocking operators that charge a
		// tracker: peak resident bytes, plus spill volume when they spilled.
		if nt := q.nodeMem[n.ID]; nt != nil {
			if p := nt.Peak(); p > 0 {
				sp.Add("mem_peak", p)
			}
			if ss := q.nodeSpill[n.ID]; ss != nil {
				if b := ss.Bytes.Load(); b > 0 {
					sp.Add("spill_bytes", b)
					sp.Add("spill_partitions", ss.Partitions.Load())
					if r := ss.Runs.Load(); r > 0 {
						sp.Add("spill_runs", r)
					}
				}
			}
		}
		sp.SetDuration(time.Duration(st.Nanos.Load()))
	}
}
