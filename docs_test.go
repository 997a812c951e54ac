package foss_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"github.com/foss-db/foss/internal/core"
	"github.com/foss-db/foss/internal/learner"
	"github.com/foss-db/foss/internal/service"
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

// flagsOf returns the flag names the non-test sources of cmd/<name> define.
func flagsOf(t *testing.T, name string) map[string]bool {
	t.Helper()
	defined := map[string]bool{}
	sources, _ := filepath.Glob("cmd/" + name + "/*.go")
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
		t.Fatalf("found no flag definitions under cmd/%s", name)
	}
	return defined
}

// TestConfigRowsNameWhatExists keeps README's configuration rows honest, so
// a deleted knob cannot linger in the docs. A row whose Where column names
// core.Config, learner.Config or service.Config names, in its first column,
// a field of that type (a dotted path such as Tier.PromoteAfter walks the
// nested structs). A row of any README table that names a setting in its
// first column names flags its command defines: fossgate's when a column
// says fossgate, fossd's otherwise.
func TestConfigRowsNameWhatExists(t *testing.T) {
	types := map[string]reflect.Type{
		"core.Config":    reflect.TypeOf(core.Config{}),
		"learner.Config": reflect.TypeOf(learner.Config{}),
		"service.Config": reflect.TypeOf(service.Config{}),
	}
	flags := map[string]map[string]bool{"fossd": flagsOf(t, "fossd"), "fossgate": flagsOf(t, "fossgate")}
	flagRef := regexp.MustCompile("`-([a-z][a-z-]*)")
	fields := 0
	for _, line := range strings.Split(read(t, "README.md"), "\n") {
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 4 {
			continue
		}
		first := strings.TrimSpace(cells[1])
		if !strings.HasPrefix(first, "`") && first != "—" {
			continue // a prose row (the test contracts), not a setting
		}
		for name, typ := range types {
			if !strings.Contains(cells[2], "`"+name+"`") {
				continue
			}
			fields++
			path := strings.Trim(first, "`")
			for _, part := range strings.Split(path, ".") {
				f, ok := typ.FieldByName(part)
				if !ok {
					t.Errorf("README row names %s on %s, which has no such field", path, name)
					break
				}
				typ = f.Type
			}
		}
		cmd := "fossd"
		for _, c := range cells {
			if strings.TrimSpace(c) == "fossgate" {
				cmd = "fossgate"
			}
		}
		for _, c := range cells[1:3] {
			for _, m := range flagRef.FindAllStringSubmatch(c, -1) {
				if !flags[cmd][m[1]] {
					t.Errorf("README row names -%s, which %s does not define: %s", m[1], cmd, line)
				}
			}
		}
	}
	if fields == 0 {
		t.Error("README has no configuration rows naming a Config field")
	}
}

// TestKnobsTableMatchesFlags keeps README's "## Knobs" table and fossd's flag
// set the same list: every flag fossd defines has a row naming it in the
// "Where" column, and every -name that column lists is a flag fossd defines.
// The table has one Default column: fossd's flag defaults are read off the
// library's DefaultConfig functions, so no cell may carry a second "(CLI: …)"
// value.
func TestKnobsTableMatchesFlags(t *testing.T) {
	defined := flagsOf(t, "fossd")

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
