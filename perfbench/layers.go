package main

import "time"

// layerMetrics folds a traced run into per-layer metrics. Times come from
// the tracer's spans, counts from the system tables and registry counters
// differenced around the measured window, and runtime figures from
// runtime/metrics. "Executed" statements are SELECTs the engine ran (not
// answered from the result cache); per-statement counts divide by them.
func layerMetrics(e *env, out *outcome, win *window) []metric {
	var (
		wireSelf, parse, coreSelf, plan, execT []float64
		writes, maint, late                    []float64
		waits                                  = map[string][]float64{}
		rows, executed                         int
		rowsScanned, netBytes                  int64
	)
	for _, s := range out.samples {
		rows += s.rows
		late = append(late, ms(s.late))
		if !s.failed {
			wireSelf = append(wireSelf, ms(s.rtt)-s.execMs)
		}
		st := e.tr.get(stmtKey{s.conn, s.seq})
		if st == nil {
			continue
		}
		parse = append(parse, us(st.parse))
		switch st.kind {
		case "select":
			coreSelf = append(coreSelf, us(st.coreSelf()))
		case "insert":
			writes = append(writes, ms(st.engine))
		case "vacuum", "analyze":
			maint = append(maint, ms(st.engine))
		}
		if !st.executed() {
			continue
		}
		executed++
		plan = append(plan, us(st.stats.PlanTime))
		execT = append(execT, ms(st.stats.ExecTime))
		rowsScanned += st.stats.RowsScanned
		netBytes += st.stats.NetBytes
		if q := st.stats.Queue; q != "" {
			waits[q] = append(waits[q], ms(st.stats.QueueWait))
		}
	}
	b, a := win.before, win.after
	n := len(out.samples)
	perStmt := func(v int64, den int) float64 { return ratio(v, int64(den)) }
	rt := a.rt
	gcCPU := 0.0
	if d := rt.allCPU - b.rt.allCPU; d > 0 {
		gcCPU = (rt.gcCPU - b.rt.gcCPU) / d
	}
	blocksRead, blocksSkipped := a.blocksRead-b.blocksRead, a.blocksSkipped-b.blocksSkipped

	ms := []metric{
		{name: "wire.self_ms_p50", value: quantile(wireSelf, 0.5), unit: "ms", n: len(wireSelf), note: "client round trip minus Response.ExecMillis"},
		{name: "wire.rows_per_stmt", value: perStmt(int64(rows), n), unit: "rows", n: n},
		{name: "sql.parse_us_p50", value: quantile(parse, 0.5), unit: "us", n: len(parse)},
		{name: "core.self_us_p50", value: quantile(coreSelf, 0.5), unit: "us", n: len(coreSelf), note: "engine minus plan, queue and exec, SELECTs"},
		{name: "core.result_cache_hit_ratio", value: ratio(a.resHits-b.resHits, a.resHits-b.resHits+a.resMisses-b.resMisses), unit: "ratio", n: int(a.resHits - b.resHits + a.resMisses - b.resMisses)},
		{name: "core.result_cache_invalidations", value: float64(a.resInvalidations - b.resInvalidations), unit: "count", n: 1},
		{name: "core.write_ms_p50", value: quantile(writes, 0.5), unit: "ms", n: len(writes), note: "INSERT engine time"},
		{name: "core.maintenance_ms_p50", value: quantile(maint, 0.5), unit: "ms", n: len(maint), note: "VACUUM and ANALYZE engine time"},
		{name: "plan.plan_us_p50", value: quantile(plan, 0.5), unit: "us", n: len(plan)},
		{name: "plan.cache_hit_ratio", value: ratio(a.planHits-b.planHits, a.planHits-b.planHits+a.planMisses-b.planMisses), unit: "ratio", n: int(a.planHits - b.planHits + a.planMisses - b.planMisses)},
	}
	for _, q := range wlmQueues {
		ms = append(ms, metric{name: "wlm.wait_ms_p99." + q, value: quantile(waits[q], 0.99), unit: "ms", n: len(waits[q])})
	}
	for _, q := range wlmQueues {
		ms = append(ms, metric{name: "wlm.admitted." + q, value: float64(a.admitted[q] - b.admitted[q]), unit: "count", n: 1})
	}
	ms = append(ms,
		metric{name: "exec.exec_ms_p50", value: quantile(execT, 0.5), unit: "ms", n: len(execT)},
		metric{name: "exec.rows_scanned_per_stmt", value: perStmt(rowsScanned, executed), unit: "rows", n: executed},
		metric{name: "exec.morsels_per_stmt", value: perStmt(a.morsels-b.morsels, executed), unit: "count", n: executed},
		metric{name: "exec.mem_peak_mb_p50", value: quantile(win.memPeaks, 0.5) / (1 << 20), unit: "MB", n: len(win.memPeaks), note: "stl_query.mem_peak, last 1024 statements"},
		metric{name: "exec.spill_bytes", value: float64(a.spillBytes - b.spillBytes), unit: "B", n: 1},
		metric{name: "storage.block_cache_hit_ratio", value: ratio(a.blockHits-b.blockHits, a.blockHits-b.blockHits+a.blockMisses-b.blockMisses), unit: "ratio", n: int(a.blockHits - b.blockHits + a.blockMisses - b.blockMisses)},
		metric{name: "storage.block_cache_evictions", value: float64(a.blockEvictions - b.blockEvictions), unit: "count", n: 1},
		metric{name: "storage.blocks_skipped_ratio", value: ratio(blocksSkipped, blocksRead+blocksSkipped), unit: "ratio", n: int(blocksRead + blocksSkipped)},
		metric{name: "storage.bytes_read_per_stmt", value: perStmt(a.bytesRead-b.bytesRead, executed), unit: "B", n: executed},
		metric{name: "cluster.net_bytes_per_stmt", value: perStmt(netBytes, executed), unit: "B", n: executed},
		metric{name: "load.copy_s", value: e.load.copyTime.Seconds(), unit: "s", n: 1},
		metric{name: "load.copy_rows_per_s", value: rowsPerSecond(e.load.copyRows, e.load.copyTime), unit: "1/s", n: 1},
		metric{name: "load.analyze_s", value: e.load.analyzeTime.Seconds(), unit: "s", n: 1},
		metric{name: "load.insert_s", value: e.load.insertTime.Seconds(), unit: "s", n: 1},
		metric{name: "runtime.alloc_mb_per_stmt", value: float64(rt.allocBytes-b.rt.allocBytes) / (1 << 20) / float64(max(n, 1)), unit: "MB", n: n, note: "whole process, client included"},
		metric{name: "runtime.gc_cycles", value: float64(rt.gcCycles - b.rt.gcCycles), unit: "count", n: 1},
		metric{name: "runtime.gc_cpu_ratio", value: gcCPU, unit: "ratio", n: 1},
		metric{name: "driver.late_ms_p99", value: quantile(late, 0.99), unit: "ms", n: len(late), note: "send time minus due time; 0 on a closed loop"},
		metric{name: "driver.backlog_s", value: out.backlog.Seconds(), unit: "s", n: 1, note: "last completion minus last due time; 0 on a closed loop"},
	)
	return ms
}

func rowsPerSecond(rows int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(rows) / d.Seconds()
}
