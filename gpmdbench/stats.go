package main

import (
	"math"
	"sort"
	"time"
)

// pct returns the q-quantile (0 < q <= 1) of xs by nearest rank, or 0
// for an empty sample. xs is not modified.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailOK reports whether the q-quantile of n samples has at least ten
// samples beyond it, the rule every reported tail percentile follows.
func tailOK(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= 10
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 { return pct(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one named measurement as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in insertion order for the human-readable
// report and as a map for the result line.
type metricSet struct {
	names []string
	vals  map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{vals: map[string]metric{}} }

func (m *metricSet) set(name string, v float64, unit string) {
	if _, dup := m.vals[name]; !dup {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

func (m *metricSet) get(name string) (metric, bool) {
	v, ok := m.vals[name]
	return v, ok
}
