package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func res(id string, lat, opt float64) QueryResult {
	return QueryResult{QueryID: id, LatencyMs: lat, OptTimeMs: opt}
}

func TestWRLIdentity(t *testing.T) {
	rs := []QueryResult{res("a", 100, 10), res("b", 50, 5)}
	if w := WRL(rs, rs); math.Abs(w-1) > 1e-12 {
		t.Fatalf("WRL self = %f", w)
	}
	if g := GMRL(rs, rs); math.Abs(g-1) > 1e-12 {
		t.Fatalf("GMRL self = %f", g)
	}
}

func TestWRLHalved(t *testing.T) {
	expert := []QueryResult{res("a", 100, 0), res("b", 300, 0)}
	learned := []QueryResult{res("a", 50, 0), res("b", 150, 0)}
	if w := WRL(learned, expert); math.Abs(w-0.5) > 1e-12 {
		t.Fatalf("WRL = %f, want 0.5", w)
	}
	if g := GMRL(learned, expert); math.Abs(g-0.5) > 1e-12 {
		t.Fatalf("GMRL = %f, want 0.5", g)
	}
}

func TestWRLIncludesOptTime(t *testing.T) {
	expert := []QueryResult{res("a", 100, 0)}
	learned := []QueryResult{res("a", 50, 50)} // execution halved, OT eats it
	if w := WRL(learned, expert); math.Abs(w-1) > 1e-12 {
		t.Fatalf("WRL = %f, want 1.0 (OT included)", w)
	}
	// GMRL ignores optimization time by definition
	if g := GMRL(learned, expert); math.Abs(g-0.5) > 1e-12 {
		t.Fatalf("GMRL = %f, want 0.5 (OT excluded)", g)
	}
}

func TestGMRLIsGeometric(t *testing.T) {
	expert := []QueryResult{res("a", 100, 0), res("b", 100, 0)}
	learned := []QueryResult{res("a", 25, 0), res("b", 400, 0)} // 0.25 and 4
	if g := GMRL(learned, expert); math.Abs(g-1) > 1e-9 {
		t.Fatalf("GMRL = %f, want 1.0 (geometric mean of 0.25 and 4)", g)
	}
}

func TestWRLMissingQueriesIgnored(t *testing.T) {
	expert := []QueryResult{res("a", 100, 0)}
	learned := []QueryResult{res("a", 50, 0), res("zz", 1e9, 0)}
	if w := WRL(learned, expert); math.Abs(w-0.5) > 1e-12 {
		t.Fatalf("WRL = %f, unmatched query leaked in", w)
	}
}

func TestEmptyInputsAreNaN(t *testing.T) {
	if !math.IsNaN(WRL(nil, nil)) || !math.IsNaN(GMRL(nil, nil)) {
		t.Fatal("empty metric inputs must be NaN")
	}
}

func TestQuantileAndBox(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Fatalf("median = %f", q)
	}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("min = %f", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Fatalf("max = %f", q)
	}
	b := Box(xs)
	if b.Min != 1 || b.Max != 5 || b.Median != 3 || b.P25 != 2 || b.P75 != 4 {
		t.Fatalf("box = %+v", b)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("quantile of empty must be NaN")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(a, b, c, d, e float64, q1, q2 float64) bool {
		for _, v := range []float64{a, b, c, d, e, q1, q2} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		lo, hi := math.Abs(q1)-math.Floor(math.Abs(q1)), math.Abs(q2)-math.Floor(math.Abs(q2))
		if lo > hi {
			lo, hi = hi, lo
		}
		xs := []float64{a, b, c, d, e}
		return Quantile(xs, lo) <= Quantile(xs, hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSavingsRatio(t *testing.T) {
	if s := SavingsRatio(100, 25); math.Abs(s-0.75) > 1e-12 {
		t.Fatalf("savings = %f", s)
	}
	if s := SavingsRatio(100, 200); math.Abs(s+1) > 1e-12 {
		t.Fatalf("negative savings = %f", s)
	}
	if s := SavingsRatio(0, 10); s != 0 {
		t.Fatalf("zero base savings = %f", s)
	}
}

func TestTotalRuntime(t *testing.T) {
	rs := []QueryResult{res("a", 10, 1), res("b", 20, 2)}
	if tot := TotalRuntime(rs); math.Abs(tot-33) > 1e-12 {
		t.Fatalf("total = %f", tot)
	}
}
