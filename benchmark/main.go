// Command benchmark is the repo's one benchmark: four named workloads that
// drive the doctor from outside through its public functions, a fixed set of
// end-to-end metrics, and per-module attribution measured around the calls
// into each layer. BENCHMARK.json at the repo root names every workload and
// metric; this program emits exactly those. See README.md for why each
// workload exists and how the metrics interact.
//
//	go run ./benchmark -workload cold_novel -seed 1 -seconds 12 -trace 0
//	go run ./benchmark -workload all                 # both passes, every workload
//	go run ./benchmark -compare benchmark/out/a benchmark/out/b
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"time"
)

// workloads maps each BENCHMARK.json workload name to its driver.
var workloads = map[string]func(context.Context, *runEnv) error{
	"cold_novel":  runColdNovel,
	"hot_repeat":  runHotRepeat,
	"wire_fleet":  runWireFleet,
	"drift_learn": runDriftLearn,
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name from BENCHMARK.json, or all")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds  = flag.Float64("seconds", 0, "measured seconds per pass (0 = run_seconds from the spec)")
		trace    = flag.String("trace", "both", "0 = end-to-end metrics, 1 = traced pass with per-layer metrics, both = one pass of each")
		out      = flag.String("out", filepath.Join("benchmark", "out"), "directory for result files, span traces and scratch state")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark contract: workload and metric names, units, directions, bounds")
		compare  = flag.Bool("compare", false, "compare two result directories given as arguments: -compare A B")
	)
	flag.Parse()

	sp, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: benchmark -compare A B"))
		}
		regressed, err := compareDirs(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	names := []string{*workload}
	if *workload == "all" {
		names = sp.workloadNames()
	}
	var passes []bool
	switch *trace {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "both":
		passes = []bool{false, true}
	default:
		fatal(fmt.Errorf("-trace %q: want 0, 1 or both", *trace))
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	machine := machineInfo()
	ok := true
	for _, name := range names {
		for _, traced := range passes {
			res, err := runOne(ctx, sp, name, *seed, *seconds, traced, *out)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			res.Machine = machine
			if err := res.write(*out); err != nil {
				fatal(err)
			}
			res.print(os.Stdout)
			ok = ok && res.Correct
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runOne runs one pass of one workload and folds what it measured into the
// metric set the spec names for that pass: every end-to-end metric untraced,
// every per-layer metric traced. A per-layer metric of a layer the workload
// never calls reads 0 with no samples; a missing end-to-end metric, or a
// metric the spec does not name, is a harness bug and fails the run.
func runOne(ctx context.Context, sp *spec, name string, seed int64, seconds float64, traced bool, outDir string) (*result, error) {
	run, found := workloads[name]
	if !found || !sp.hasWorkload(name) {
		return nil, fmt.Errorf("unknown workload (spec names %v)", sp.workloadNames())
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	env := &runEnv{
		seed:    seed,
		seconds: seconds,
		traced:  traced,
		outDir:  outDir,
		rec:     newRecorder(),
		tr:      newTracer(traced),
		began:   time.Now(),
	}
	if err := run(ctx, env); err != nil {
		return nil, err
	}
	env.rec.set("fail_share", float64(env.rec.failed)/float64(max(env.rec.attempted, 1)), env.rec.attempted)
	if traced {
		if err := env.tr.flush(filepath.Join(outDir, name+".trace.json")); err != nil {
			return nil, err
		}
	}

	res := &result{
		Workload:   name,
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
		Attempted:  env.rec.attempted,
		Failed:     env.rec.failed,
		Violations: env.rec.violations,
		Metrics:    map[string]metricValue{},
	}
	want := sp.EndToEnd
	if traced {
		want = sp.PerLayer
	}
	for _, m := range want {
		s, have := env.rec.metrics[m.Name]
		if !have && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: s.v, Unit: m.Unit, Better: m.Better, Samples: s.n}
	}
	for got := range env.rec.metrics {
		if !sp.names(got) {
			return nil, fmt.Errorf("metric %s is not in the spec", got)
		}
	}
	res.Correct = len(res.Violations) == 0 && res.Failed == 0
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return res, nil
}

// result is one pass of one workload: what the driver reads from the last
// stdout line, plus the metadata a later comparison needs.
type result struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Traced     bool                   `json:"traced"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Violations []string               `json:"violations,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
	Machine    machine                `json:"machine"`
}

type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Samples int     `json:"samples"`
}

// write stores the result under a name unique to the run, so a directory
// accumulates one set of runs for -compare.
func (r *result) write(dir string) error {
	pass := 0
	if r.Traced {
		pass = 1
	}
	name := fmt.Sprintf("%s.seed%d.trace%d.%d.result.json", r.Workload, r.Seed, pass, os.Getpid())
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// print lists every metric by name with its unit, then the one-line JSON
// object the driver parses (it must stay the last line of stdout).
func (r *result) print(w *os.File) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d seconds=%g traced=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-40s %16.6g %-8s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "VIOLATION: %s\n", v)
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]wire{}}
	for n, m := range r.Metrics {
		line.Metrics[n] = wire{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", data)
}
