package main

import (
	"fmt"
	"runtime/metrics"
	"time"
)

// counters is a snapshot of the warehouse's cumulative telemetry — its
// system tables and metrics registry — and of the Go runtime. Per-layer
// counts are the difference of two snapshots around the measured window.
type counters struct {
	blockHits, blockMisses, blockEvictions int64 // stv_block_cache
	planHits, planMisses                   int64 // stv_plan_cache
	resHits, resMisses, resInvalidations   int64 // stv_result_cache
	blocksRead, blocksSkipped, bytesRead   int64 // stv_slice_stats, all slices
	admitted                               map[string]int64
	morsels, spillBytes                    int64 // registry counters
	lastQuery                              int64 // highest stl_query id
	rt                                     runtimeSnap
}

// wlmQueues are the queue names the per-layer report always carries.
var wlmQueues = []string{"express", "dash", "etl", "default"}

func (e *env) snapshot() (counters, error) {
	var c counters
	one := func(q string, dst ...*int64) error {
		res, err := e.exec(q)
		if err != nil {
			return err
		}
		if len(res.Rows) != 1 || len(res.Rows[0]) != len(dst) {
			return fmt.Errorf("%s: unexpected shape", q)
		}
		for i, v := range res.Rows[0] {
			*dst[i] = v.I
		}
		return nil
	}
	if err := one(`SELECT hits, misses, evictions FROM stv_block_cache`, &c.blockHits, &c.blockMisses, &c.blockEvictions); err != nil {
		return c, err
	}
	if err := one(`SELECT hits, misses FROM stv_plan_cache`, &c.planHits, &c.planMisses); err != nil {
		return c, err
	}
	if err := one(`SELECT hits, misses, invalidations FROM stv_result_cache`, &c.resHits, &c.resMisses, &c.resInvalidations); err != nil {
		return c, err
	}
	res, err := e.exec(`SELECT blocks_read, blocks_skipped, bytes_read FROM stv_slice_stats`)
	if err != nil {
		return c, err
	}
	for _, r := range res.Rows {
		c.blocksRead += r[0].I
		c.blocksSkipped += r[1].I
		c.bytesRead += r[2].I
	}
	res, err = e.exec(`SELECT queue, total_queries FROM stv_wlm_queues`)
	if err != nil {
		return c, err
	}
	c.admitted = map[string]int64{}
	for _, r := range res.Rows {
		c.admitted[r[0].S] = r[1].I
	}
	res, err = e.exec(`SELECT query FROM stl_query`)
	if err != nil {
		return c, err
	}
	for _, r := range res.Rows {
		c.lastQuery = max(c.lastQuery, r[0].I)
	}
	m := e.wh.Metrics()
	c.morsels = m.Counter("morsels_dispatched_total").Value()
	c.spillBytes = m.Counter("spill_bytes_total").Value()
	c.rt = readRuntime()
	return c, nil
}

// memPeaks returns stl_query.mem_peak of the statements logged after the
// query id since that executed (exec_ms > 0 leaves out result-cache hits).
// stl_query keeps the most recent 1024 statements.
func (e *env) memPeaks(since int64) ([]float64, error) {
	res, err := e.exec(`SELECT query, mem_peak, exec_ms, state FROM stl_query`)
	if err != nil {
		return nil, err
	}
	var out []float64
	for _, r := range res.Rows {
		if r[0].I > since && r[2].F > 0 && r[3].S == "success" {
			out = append(out, float64(r[1].I))
		}
	}
	return out, nil
}

// runtimeSnap holds the Go runtime's cumulative counters.
type runtimeSnap struct {
	allocBytes    uint64
	gcCycles      uint64
	gcCPU, allCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		allCPU:     s[3].Value.Float64(),
	}
}

// heapWatch samples the live heap — the heap the last GC marked
// reachable — and keeps its peak.
type heapWatch struct {
	stop chan struct{}
	done chan uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peak stops the watch and returns the peak live heap in bytes.
func (h *heapWatch) peak() uint64 {
	close(h.stop)
	return <-h.done
}

// window brackets a measured window: counters before and after, and the
// peak live heap in between.
type window struct {
	e             *env
	before, after counters
	heap          *heapWatch
	peakHeap      uint64
	memPeaks      []float64
}

func (w *window) begin() error {
	var err error
	w.before, err = w.e.snapshot()
	w.heap = watchHeap()
	return err
}

func (w *window) end() error {
	w.peakHeap = w.heap.peak()
	var err error
	if w.after, err = w.e.snapshot(); err != nil {
		return err
	}
	w.memPeaks, err = w.e.memPeaks(w.before.lastQuery)
	return err
}
