package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"schedsearch/internal/stats"
)

// epoch anchors now(): every timestamp the benchmark takes is
// monotonic nanoseconds since process start.
var epoch = time.Now()

// Time spent in the calibration kernel is left out (see calib.go).
func now() int64 { return int64(time.Since(epoch)) - calSpent.Load() }

// dist is an exact percentile summary of raw per-call samples (no
// histogram buckets): the median and the tail percentile, where the
// tail is p99 when at least ten samples lie beyond it and otherwise
// the highest percentile that still has ten samples beyond it.
type dist struct {
	N    int
	P50  float64
	Tail float64
	// TailPct is the percentile Tail reports (99 unless the sample is
	// too small for p99).
	TailPct float64
}

// summarize computes the exact nearest-rank percentiles of samples
// (nanoseconds), in the given output unit (e.g. time.Microsecond).
func summarize(samples []int64, unit time.Duration) dist {
	n := len(samples)
	if n == 0 {
		return dist{}
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	d := dist{N: n, TailPct: 99}
	d.P50 = float64(s[rank(n, 0.5)]) / float64(unit)
	idx := rank(n, 0.99)
	if n-1-idx < 10 {
		// Too few samples for p99: take the value with exactly ten
		// samples above it (or the median when even that is missing).
		idx = n - 11
		if idx < rank(n, 0.5) {
			idx = rank(n, 0.5)
		}
		d.TailPct = 100 * float64(idx+1) / float64(n)
	}
	d.Tail = float64(s[idx]) / float64(unit)
	return d
}

// rank is the 0-based nearest-rank index of quantile q in n samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never
// reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one named, unit-carrying result. Note explains a reported
// value that deviates from its name (a tail below p99) or records the
// sample count behind a percentile.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string
}

// sheet collects a run's metrics in print order.
type sheet struct {
	ms []metric
}

func (s *sheet) add(name, unit string, v float64) {
	s.ms = append(s.ms, metric{Name: name, Unit: unit, Value: v})
}

// addDist adds name_p50_us and name_p99_us from per-pass
// distributions: each is the median across passes of that pass's
// percentile, and the note states the sample count and, when a unit
// was too small for p99, which percentile was reported instead.
func (s *sheet) addDist(name string, per []dist) {
	var p50, tail []float64
	n, minPct := 0, 99.0
	for _, d := range per {
		if d.N == 0 {
			continue
		}
		p50 = append(p50, d.P50)
		tail = append(tail, d.Tail)
		n += d.N
		minPct = math.Min(minPct, d.TailPct)
	}
	note := fmt.Sprintf("n=%d over %d passes; exact percentiles per unit, median across units and passes", n, len(p50))
	if n == 0 {
		note = "not measured on this workload"
	}
	s.ms = append(s.ms, metric{Name: name + "_p50_us", Unit: "us", Value: stats.Percentile(p50, 50), Note: note})
	if len(p50) > 0 && minPct < 99 {
		note += fmt.Sprintf("; too few samples for p99, reports p%.1f", minPct)
	}
	s.ms = append(s.ms, metric{Name: name + "_p99_us", Unit: "us", Value: stats.Percentile(tail, 50), Note: note})
}

func (s *sheet) get(name string) (metric, bool) {
	for _, m := range s.ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}
