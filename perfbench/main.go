// Command perfbench is the repository's end-to-end benchmark. It launches
// a warehouse in-process, serves it through wire.NewSessionServer on
// loopback as cmd/redshift-server does, drives one named workload through
// real wire.Client connections, checks every answer, and prints its
// metrics: end-to-end ones with -trace 0, per-layer ones with -trace 1.
//
//	go run . -workload dashboard|analytics|mixed -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// Lines before it list the same metrics with their sample counts. A wrong
// answer prints correct=false and exits 1; a run that cannot complete
// exits 2 without a JSON line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRuns is how many fresh warehouses a measured run sets up; setup_s
// is their median and the last one is measured.
const setupRuns = 3

// buildDir, relative to the working directory, receives span files and
// any spill scratch; run.py builds the benchmark there too.
const buildDir = ".bench_build"

func main() {
	name := flag.String("workload", "", "workload: dashboard, analytics or mixed")
	seed := flag.Int64("seed", 1, "seed for the workload's data and statements")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	var w traffic
	switch *name {
	case "dashboard":
		w = newDashboard(*seed)
	case "analytics":
		w = newAnalytics(*seed)
	case "mixed":
		w = newMixed(*seed, dur)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0))

	var res *result
	var err error
	if *trace == 0 {
		res, err = measure(*name, w, dur)
	} else {
		res, err = traced(*name, *seed, w, dur)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	for _, s := range res.wrong {
		fmt.Fprintf(os.Stderr, "perfbench: wrong answer: %s\n", s)
	}
	out := map[string]any{
		"correct":   len(res.wrong) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   map[string]any{},
	}
	for _, m := range res.metrics {
		out["metrics"].(map[string]any)[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if len(res.wrong) > 0 {
		os.Exit(1)
	}
}

// result is what one invocation reports.
type result struct {
	metrics           []metric
	attempted, failed int
	wrong             []string
}

// primary names, for each workload, the statement class whose median is
// p50_ms, and the class and percentile reported as tail_ms. On mixed the
// tail is the ETL tenant's p90: the short statements' p99 there is set by
// whichever host stall the run happens to catch, and their p90 falls on
// the edge between statements that overlap an ETL transform and those
// that do not, so both swing by half between runs.
var primary = map[string]struct {
	class, tailClass string
	tail             float64
}{
	"dashboard": {"short", "short", 0.99},
	"analytics": {"heavy", "heavy", 0.90},
	"mixed":     {"short", "etl", 0.90},
}

// measure sets up setupRuns fresh warehouses, measures the last one
// untraced, and reports the end-to-end metrics.
func measure(name string, w traffic, dur time.Duration) (*result, error) {
	var setups []float64
	var e *env
	for i := 0; i < setupRuns; i++ {
		if e != nil {
			e.close()
			e = nil
			settle()
		}
		var err error
		if e, err = launch(w, false); err != nil {
			return nil, err
		}
		setups = append(setups, e.setup.Seconds())
	}
	defer e.close()
	out, win, err := w.run(e, dur)
	if err != nil {
		return nil, err
	}
	p := primary[name]
	lat := latencies(out.samples, p.class)
	if len(lat) == 0 || len(latencies(out.samples, p.tailClass)) == 0 {
		return nil, fmt.Errorf("no %s or %s statement completed", p.class, p.tailClass)
	}
	// Detail: every class the workload has, with sample counts.
	var detail []metric
	for _, class := range []string{"short", "heavy", "etl"} {
		if l := latencies(out.samples, class); len(l) > 0 {
			tail := 0.90
			if class == "short" {
				tail = 0.99
			}
			detail = append(detail, latencyMetrics(class, l, tail)...)
		}
	}
	n := len(out.samples)
	failed := out.failed()
	qps := metric{name: "qps", value: float64(n-failed) / out.elapsed.Seconds(), unit: "1/s", n: n}
	setup := metric{name: "setup_s", value: quantile(setups, 0.5), unit: "s", n: len(setups), note: "median"}
	heap := metric{name: "peak_heap_mb", value: float64(win.peakHeap) / (1 << 20), unit: "MB", n: 1, note: "peak live heap, whole process"}
	detail = append(detail, qps, setup, heap,
		metric{name: "failed_ratio", value: ratio(int64(failed), int64(n)), unit: "ratio", n: n})
	printMetrics("end-to-end, by class", detail)

	lm := latencyMetrics(p.class, lat, p.tail)
	p50 := lm[0]
	p50.name = "p50_ms"
	p50.note = lm[0].name
	tm := latencyMetrics(p.tailClass, latencies(out.samples, p.tailClass), p.tail)
	tail := tm[1]
	tail.name = "tail_ms"
	tail.note = tm[1].name + ", " + tail.note
	gated := []metric{setup, qps, p50, tail, heap}
	printMetrics("end-to-end, reported", gated)
	return &result{metrics: gated, attempted: n, failed: failed, wrong: out.wrong}, nil
}

// traced runs the workload untraced and then traced, each on a fresh
// warehouse, and reports per-layer metrics from the traced run plus the
// tracing overhead on the primary median.
func traced(name string, seed int64, w traffic, dur time.Duration) (*result, error) {
	p := primary[name]
	var base float64
	{
		e, err := launch(w, false)
		if err != nil {
			return nil, err
		}
		out, _, err := w.run(e, dur)
		e.close()
		if err != nil {
			return nil, err
		}
		base = quantile(latencies(out.samples, p.class), 0.5)
	}
	settle()
	e, err := launch(w, true)
	if err != nil {
		return nil, err
	}
	defer e.close()
	out, win, err := w.run(e, dur)
	if err != nil {
		return nil, err
	}
	withTrace := quantile(latencies(out.samples, p.class), 0.5)
	ms := layerMetrics(e, out, win)
	ms = append(ms, metric{name: "trace.overhead_ratio", value: withTrace/base - 1, unit: "ratio", n: 2,
		note: fmt.Sprintf("%s p50 %.4f ms traced vs %.4f ms untraced", p.class, withTrace, base)})
	printMetrics("per layer (traced run)", ms)
	sort.Slice(out.samples, func(i, j int) bool { return out.samples[i].sent.Before(out.samples[j].sent) })
	path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := e.tr.writeSpans(path, out.samples); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("# spans: %s\n", path)
	return &result{metrics: ms, attempted: len(out.samples), failed: out.failed(), wrong: out.wrong}, nil
}
