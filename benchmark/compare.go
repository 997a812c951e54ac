package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// loadRuns reads every result file in dir and groups the values by workload
// and metric: one set of runs.
func loadRuns(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.result.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no *.result.json files", dir)
	}
	runs := map[string]map[string][]float64{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], m.Value)
		}
	}
	return runs, nil
}

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}

// verdict judges set B against set A for one metric. PASS: B's median is no
// worse than A's by more than the bound. REGRESSED: it is, and the
// run-to-run spread (the wider interquartile range, as a share of A's
// median) is within the bound, so the difference is resolved. UNRESOLVED:
// the spread exceeds the bound, so the runs cannot tell — unless every run
// of B reads better than every run of A.
func verdict(m specMetric, a, b []float64) string {
	a1, a2, a3 := quartiles(a)
	b1, b2, b3 := quartiles(b)
	if a2 == 0 {
		if b2 == 0 {
			return "PASS"
		}
		return "UNRESOLVED"
	}
	worse := (b2 - a2) / a2
	if m.Better == "higher" {
		worse = -worse
	}
	spread := max(a3-a1, b3-b1) / a2
	if spread < 0 {
		spread = -spread
	}
	if spread > m.Bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				if (m.Better == "higher" && x <= y) || (m.Better != "higher" && x >= y) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "PASS"
		}
		return "UNRESOLVED"
	}
	if worse > m.Bound {
		return "REGRESSED"
	}
	return "PASS"
}

// compareDirs prints, per workload and metric, both sets' medians and
// quartiles and B's median as a ratio of A's. End-to-end metrics are judged
// against their bound in the spec; per-layer metrics have none and are
// listed for attribution only. It reports whether any metric regressed.
func compareDirs(w io.Writer, sp *spec, dirA, dirB string) (bool, error) {
	a, err := loadRuns(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(dirB)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "A = %s, B = %s; ratio = median(B) / median(A)\n", dirA, dirB)
	for _, wl := range sp.workloadNames() {
		if a[wl] == nil || b[wl] == nil {
			continue
		}
		fmt.Fprintf(w, "\n## %s\n", wl)
		fmt.Fprintf(w, "%-34s %-7s %2s %12s [%12s %12s] %2s %12s [%12s %12s] %8s %6s  %s\n",
			"metric", "unit", "nA", "median A", "q1", "q3", "nB", "median B", "q1", "q3", "ratio", "bound", "verdict")
		for _, group := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
			for _, m := range group {
				va, vb := a[wl][m.Name], b[wl][m.Name]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				a1, a2, a3 := quartiles(va)
				b1, b2, b3 := quartiles(vb)
				ratio, bound, v := "-", "-", "-"
				if a2 != 0 {
					ratio = fmt.Sprintf("%.4f", b2/a2)
				}
				if m.Bound > 0 {
					bound = fmt.Sprintf("%.3f", m.Bound)
					v = verdict(m, va, vb)
					regressed = regressed || v == "REGRESSED"
				}
				fmt.Fprintf(w, "%-34s %-7s %2d %12.6g [%12.6g %12.6g] %2d %12.6g [%12.6g %12.6g] %8s %6s  %s\n",
					m.Name, m.Unit, len(va), a2, a1, a3, len(vb), b2, b1, b3, ratio, bound, v)
			}
		}
	}
	return regressed, nil
}
