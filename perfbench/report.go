package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	n     int    // samples behind the value
	note  string // how it was derived, when the name does not say
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(k, len(xs)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// latencies returns the client latencies (ms) of the successful samples
// of one class.
func latencies(ss []sample, class string) []float64 {
	var out []float64
	for _, s := range ss {
		if s.class == class && !s.failed {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

// tailLevel is the percentile a tail is reported at: want, lowered until
// at least ten samples lie beyond it.
func tailLevel(n int, want float64) float64 {
	if n == 0 {
		return want
	}
	return math.Min(want, float64(n-10)/float64(n))
}

// latencyMetrics reports a class's median and tail, named prefix_p50_ms
// and prefix_pNN_ms.
func latencyMetrics(prefix string, lat []float64, tail float64) []metric {
	level := tailLevel(len(lat), tail)
	return []metric{
		{name: prefix + "_p50_ms", value: quantile(lat, 0.5), unit: "ms", n: len(lat)},
		{name: fmt.Sprintf("%s_p%02.0f_ms", prefix, tail*100), value: quantile(lat, level), unit: "ms", n: len(lat),
			note: fmt.Sprintf("at p%.1f, %d samples beyond", level*100, len(lat)-int(math.Ceil(level*float64(len(lat)))))},
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func printMetrics(title string, ms []metric) {
	fmt.Printf("# %s\n", title)
	for _, m := range ms {
		line := fmt.Sprintf("%-34s %14.6g %-6s n=%d", m.name, m.value, m.unit, m.n)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Println(line)
	}
}
