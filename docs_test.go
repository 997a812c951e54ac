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

// TestKnobsTableMatchesFlags keeps README's "## Knobs" table and fossd's flag
// set the same list: every flag fossd defines has a row naming it in the
// "Where" column, and every -name that column lists is a flag fossd defines.
// The table has one Default column: fossd's flag defaults are read off the
// library's DefaultConfig functions, so no cell may carry a second "(CLI: …)"
// value.
func TestKnobsTableMatchesFlags(t *testing.T) {
	defined := map[string]bool{}
	sources, _ := filepath.Glob("cmd/fossd/*.go")
	flagDef := regexp.MustCompile(`flag\.\w+\("([^"]+)"`)
	for _, f := range sources {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		for _, m := range flagDef.FindAllStringSubmatch(read(t, f), -1) {
			defined[m[1]] = true
		}
	}
	if len(defined) == 0 {
		t.Fatal("found no flag definitions under cmd/fossd")
	}

	_, knobs, _ := strings.Cut(read(t, "README.md"), "\n## Knobs\n")
	knobs, _, _ = strings.Cut(knobs, "\n## ")
	listed := map[string]bool{}
	flagRef := regexp.MustCompile("`-([a-z][a-z-]*)`")
	for _, line := range strings.Split(knobs, "\n") {
		if strings.Contains(line, "(CLI:") {
			t.Errorf("README's Knobs table states a second default: %s", line)
		}
		// | knob | where | default | meaning |
		if cells := strings.Split(line, "|"); len(cells) >= 5 {
			for _, m := range flagRef.FindAllStringSubmatch(cells[2], -1) {
				listed[m[1]] = true
			}
		}
	}
	for name := range defined {
		if !listed[name] {
			t.Errorf("fossd defines -%s but README's Knobs table has no row for it", name)
		}
	}
	for name := range listed {
		if !defined[name] {
			t.Errorf("README's Knobs table lists -%s but fossd defines no such flag", name)
		}
	}
}
