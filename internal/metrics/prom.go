package metrics

// prom.go — the serving-side half of the package: a dependency-free,
// allocation-free latency histogram and a Prometheus text-exposition-format
// writer. The paper-eval half (WRL/GMRL) measures the doctor offline; this
// half is how a live doctor is watched.
//
// The histogram is built for the tier-0 serve path's zero-allocation budget:
// a fixed array of atomic bucket counters (no slice header, no map, no
// lock), log₂-spaced bounds from 1µs to ~2s, and an Observe that is two
// atomic adds plus a bit-length computation. Because every bucket counter
// only ever increases, the cumulative `le` series derived from a snapshot is
// monotonic both within one scrape (prefix sums) and across scrapes — the
// property the CI metrics gate asserts.

import (
	"io"
	"math/bits"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of finite histogram buckets. Bucket k holds
// observations in (2^(k-1)µs, 2^k µs]; bucket 0 holds everything ≤ 1µs and
// the extra slot past the last bound holds the +Inf overflow. 22 buckets
// span 1µs .. ~2.1s, which covers microsecond tier-0 hits through
// multi-second pathological plans.
const HistBuckets = 22

// histBoundNs returns bucket i's upper bound in nanoseconds: 1µs·2^i.
func histBoundNs(i int) int64 { return int64(1000) << uint(i) }

// HistBounds returns the finite bucket upper bounds in seconds (the
// Prometheus `le` values, excluding +Inf).
func HistBounds() [HistBuckets]float64 {
	var b [HistBuckets]float64
	for i := range b {
		b[i] = float64(histBoundNs(i)) / 1e9
	}
	return b
}

// Histogram is a fixed-bucket latency histogram safe for concurrent use.
// The zero value is ready; Observe never allocates.
type Histogram struct {
	counts [HistBuckets + 1]atomic.Uint64 // per-bucket (non-cumulative); last = +Inf overflow
	sumNs  atomic.Int64
}

// Observe records one latency. Allocation-free: two atomic adds and a
// bit-length bucket index.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.sumNs.Add(ns)
	// Smallest k with ns ≤ 1000·2^k: for ns in (1000·2^(k-1), 1000·2^k] the
	// quotient (ns-1)/1000 has bit length exactly k; ns ≤ 1µs lands in 0.
	idx := 0
	if ns > 1000 {
		idx = bits.Len64(uint64(ns-1) / 1000)
		if idx > HistBuckets {
			idx = HistBuckets // +Inf overflow slot
		}
	}
	h.counts[idx].Add(1)
}

// Count returns the number of observations so far without copying a
// snapshot: the Σ of the bucket counts, read low-to-high like Snapshot.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// HistSnapshot is one consistent-enough reading of a Histogram: the
// per-bucket counts are individually exact and only ever grow, and Count is
// derived as their sum — so the cumulative series is internally consistent
// by construction (the +Inf cumulative count always equals Count).
type HistSnapshot struct {
	Counts     [HistBuckets + 1]uint64
	SumSeconds float64
}

// Snapshot reads the histogram. Buckets are read low-to-high after the sum,
// so a snapshot taken under concurrent Observe calls never reports a sum
// missing an already-counted observation's latency by more than the
// observations in flight.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.SumSeconds = float64(h.sumNs.Load()) / 1e9
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Count returns the total number of observations in the snapshot (the Σ of
// the bucket counts — never a separately-raced counter).
func (s HistSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// ---- Prometheus text exposition format ----

// Label is one name="value" pair on a metric sample.
type Label struct {
	Key, Value string
}

// Expo accumulates metric families in the Prometheus text exposition format
// (version 0.0.4). Callers must emit each family exactly once (one Family
// call, then every sample of that family) — the format forbids repeating
// # TYPE blocks for one metric name.
type Expo struct {
	b strings.Builder
}

// Family writes the # HELP / # TYPE header for one metric family.
// typ is "counter", "gauge", or "histogram".
func (e *Expo) Family(name, help, typ string) {
	e.b.WriteString("# HELP ")
	e.b.WriteString(name)
	e.b.WriteByte(' ')
	e.b.WriteString(help)
	e.b.WriteString("\n# TYPE ")
	e.b.WriteString(name)
	e.b.WriteByte(' ')
	e.b.WriteString(typ)
	e.b.WriteByte('\n')
}

// Sample writes one sample line: name{labels} value.
func (e *Expo) Sample(name string, labels []Label, value float64) {
	e.sampleStr(name, labels, strconv.FormatFloat(value, 'g', -1, 64))
}

// Uint writes one sample line with an integer value (counters).
func (e *Expo) Uint(name string, labels []Label, v uint64) {
	e.sampleStr(name, labels, strconv.FormatUint(v, 10))
}

func (e *Expo) sampleStr(name string, labels []Label, value string) {
	e.b.WriteString(name)
	e.writeLabels(labels)
	e.b.WriteByte(' ')
	e.b.WriteString(value)
	e.b.WriteByte('\n')
}

func (e *Expo) writeLabels(labels []Label) {
	if len(labels) == 0 {
		return
	}
	e.b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			e.b.WriteByte(',')
		}
		e.b.WriteString(l.Key)
		e.b.WriteString(`="`)
		e.b.WriteString(escapeLabel(l.Value))
		e.b.WriteByte('"')
	}
	e.b.WriteByte('}')
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Hist writes one histogram series: the cumulative le buckets (including
// +Inf), _sum, and _count, all carrying the given labels. The cumulative
// counts are prefix sums of the snapshot's monotonic per-bucket counters,
// and _count is the +Inf cumulative value — internally consistent by
// construction.
func (e *Expo) Hist(name string, labels []Label, s HistSnapshot) {
	ls := make([]Label, len(labels), len(labels)+1)
	copy(ls, labels)
	var cum uint64
	for i := 0; i < HistBuckets; i++ {
		cum += s.Counts[i]
		bound := float64(histBoundNs(i)) / 1e9
		e.sampleStr(name+"_bucket",
			append(ls, Label{"le", strconv.FormatFloat(bound, 'g', -1, 64)}),
			strconv.FormatUint(cum, 10))
	}
	cum += s.Counts[HistBuckets]
	e.sampleStr(name+"_bucket", append(ls, Label{"le", "+Inf"}), strconv.FormatUint(cum, 10))
	e.Sample(name+"_sum", labels, s.SumSeconds)
	e.Uint(name+"_count", labels, cum)
}

// WriteTo writes the accumulated exposition to w.
func (e *Expo) WriteTo(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, e.b.String())
	return int64(n), err
}

// String returns the accumulated exposition.
func (e *Expo) String() string { return e.b.String() }

// Len returns the accumulated byte length.
func (e *Expo) Len() int { return e.b.Len() }
