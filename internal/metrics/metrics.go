// Package metrics implements the paper's evaluation metrics: Workload
// Relevant Latency (WRL) and Geometric Mean Relevant Latency (GMRL), plus
// the quantile helpers used by the optimization-time and known-best-plan
// analyses.
package metrics

import (
	"math"
	"sort"
)

// QueryResult is one query's measurement under one optimizer.
type QueryResult struct {
	QueryID   string
	LatencyMs float64 // execution latency ET
	OptTimeMs float64 // optimization time OT (SQL in → plan out)
}

// WRL = Σ(ET_l + OT_l) / Σ(ET_e + OT_e): total-workload latency of the
// learned optimizer relative to the expert. <1 means the learned optimizer
// is faster overall.
func WRL(learned, expert []QueryResult) float64 {
	num, den := 0.0, 0.0
	em := byID(expert)
	for _, l := range learned {
		e, ok := em[l.QueryID]
		if !ok {
			continue
		}
		num += l.LatencyMs + l.OptTimeMs
		den += e.LatencyMs + e.OptTimeMs
	}
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// GMRL = (Π ET_l/ET_e)^(1/|W|): per-query optimization effectiveness.
func GMRL(learned, expert []QueryResult) float64 {
	em := byID(expert)
	logSum, n := 0.0, 0
	for _, l := range learned {
		e, ok := em[l.QueryID]
		if !ok || e.LatencyMs <= 0 || l.LatencyMs <= 0 {
			continue
		}
		logSum += math.Log(l.LatencyMs / e.LatencyMs)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(logSum / float64(n))
}

// TotalRuntime sums ET + OT over the result set, in milliseconds.
func TotalRuntime(rs []QueryResult) float64 {
	t := 0.0
	for _, r := range rs {
		t += r.LatencyMs + r.OptTimeMs
	}
	return t
}

func byID(rs []QueryResult) map[string]QueryResult {
	m := make(map[string]QueryResult, len(rs))
	for _, r := range rs {
		m[r.QueryID] = r
	}
	return m
}

// Quantile returns the q-quantile (0..1) of xs by linear interpolation.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// BoxStats summarizes a distribution for the Fig. 6 box plots.
type BoxStats struct {
	Min, P25, Median, P75, Max float64
}

// Box computes box-plot statistics.
func Box(xs []float64) BoxStats {
	return BoxStats{
		Min:    Quantile(xs, 0),
		P25:    Quantile(xs, 0.25),
		Median: Quantile(xs, 0.5),
		P75:    Quantile(xs, 0.75),
		Max:    Quantile(xs, 1),
	}
}

// SavingsRatio returns 1 − lat/base (the time-saving fraction of Fig. 8),
// clamped to (−∞, 1].
func SavingsRatio(base, lat float64) float64 {
	if base <= 0 {
		return 0
	}
	return 1 - lat/base
}
