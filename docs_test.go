package foss_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func read(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestDocsNameOnlyWhatExists ties the README's performance budget to the
// benchmark contract — every row names a workload and a metric BENCHMARK.json
// declares — and keeps the retired bench spine (numbered snapshots, its
// script, its Benchmark* functions) out of the docs a reader would follow.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal([]byte(read(t, "BENCHMARK.json")), &spec); err != nil {
		t.Fatal(err)
	}
	workloads, metrics := map[string]bool{}, map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		metrics[m.Name] = true
	}

	_, budget, _ := strings.Cut(read(t, "README.md"), "\n## Performance budget\n")
	budget, _, _ = strings.Cut(budget, "\n## ")
	rows := 0
	for _, line := range strings.Split(budget, "\n") {
		// | `workload` | `metric` | median | recorded | command |
		cells := strings.Split(line, "|")
		if len(cells) < 6 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		rows++
		wl, m := strings.Trim(cells[1], " `"), strings.Trim(cells[2], " `")
		if !workloads[wl] || !metrics[m] {
			t.Errorf("README budget row names %s × %s; BENCHMARK.json has no such workload or metric", wl, m)
		}
		if !strings.Contains(cells[5], "go run ./benchmark") {
			t.Errorf("README budget row %s × %s has no reproducing command", wl, m)
		}
	}
	if rows == 0 {
		t.Error("README has no \"## Performance budget\" section with table rows")
	}

	retired := regexp.MustCompile(`BENCH_\d|bench\.sh|\bBenchmark[A-Z]\w*`)
	scripts, _ := filepath.Glob("scripts/*")
	for _, f := range append(scripts, "README.md", "Makefile", ".claude/skills/verify/SKILL.md") {
		if m := retired.FindString(read(t, f)); m != "" {
			t.Errorf("%s mentions %q: the legacy bench path is gone, `go run ./benchmark` is the one measurement", f, m)
		}
	}
}
