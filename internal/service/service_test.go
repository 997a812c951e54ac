package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/learner"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/runtime"
	"github.com/foss-db/foss/internal/store"
)

// fq builds a distinct tiny query; v differentiates fingerprints.
func fq(v int64) *query.Query {
	return &query.Query{
		ID:       fmt.Sprintf("q%d", v),
		Template: "t",
		Tables:   []query.TableRef{{Table: "a", Alias: "a"}},
		Filters:  []query.Filter{{Alias: "a", Col: "c", Op: query.Eq, Val: v}},
	}
}

// fakeReplica is a scripted Replica: constant per-query latencies, counted
// train/save/load calls, optional train delay for overlap tests. Its weights
// are a string that each training appends to, so a Save tells generations
// apart. Forks share the buffer and the lineage, the way core forks share a
// buffer and a catalog world.
type fakeReplica struct {
	name       string
	buf        *learner.Buffer
	lin        *fakeLineage
	trainDelay time.Duration // inherited by forks
	// onServe, when set, runs inside every OptimizeEvalContext with the
	// running serve count — the hook mid-request events are injected through.
	onServe func(n int64)
	// execNaN makes Execute refuse the plan the way a replica does once a
	// DDL dropped schema the plan depends on.
	execNaN atomic.Bool

	wMu     sync.Mutex
	weights string

	trains atomic.Int64
	saves  atomic.Int64
	loads  atomic.Int64
	serves atomic.Int64
}

// fakeLineage is what a fake and every replica forked from it share: the
// catalog (an applied-DDL log and the set of dropped tables, so stale-query
// refusal is observable), the failure switches, and the forks taken.
type fakeLineage struct {
	catMu   sync.Mutex
	catLog  []catalog.DDL
	dropped map[string]bool

	// saveFail makes Save fail, so no checkpoint can land.
	saveFail atomic.Bool
	// trainFails makes the next n trainings fail after they have mutated
	// their replica's weights.
	trainFails atomic.Int64
	// loadFail makes Load fail.
	loadFail atomic.Bool

	forkMu sync.Mutex
	forks  []*fakeReplica
}

func newFake(name string) *fakeReplica {
	return &fakeReplica{name: name, buf: learner.NewBuffer(), weights: "w0",
		lin: &fakeLineage{dropped: map[string]bool{}}}
}

func (f *fakeReplica) Fork() (Replica, error) {
	l := f.lin
	l.forkMu.Lock()
	defer l.forkMu.Unlock()
	c := &fakeReplica{name: fmt.Sprintf("%s/%d", f.name, len(l.forks)+1), buf: f.buf, lin: l,
		trainDelay: f.trainDelay, weights: f.currentWeights()}
	l.forks = append(l.forks, c)
	return c, nil
}

// forked returns the replicas forked from f's lineage, oldest first.
func (f *fakeReplica) forked() []*fakeReplica {
	f.lin.forkMu.Lock()
	defer f.lin.forkMu.Unlock()
	return append([]*fakeReplica(nil), f.lin.forks...)
}

func (f *fakeReplica) currentWeights() string {
	f.wMu.Lock()
	defer f.wMu.Unlock()
	return f.weights
}

func (f *fakeReplica) ApplyDDL(ddls []catalog.DDL) (uint64, error) {
	l := f.lin
	l.catMu.Lock()
	defer l.catMu.Unlock()
	for _, d := range ddls {
		switch d.Kind {
		case catalog.DDLDropTable:
			l.dropped[d.Table] = true
		case catalog.DDLAddTable:
			delete(l.dropped, d.Table)
		}
	}
	l.catLog = append(l.catLog, ddls...)
	return uint64(len(l.catLog)), nil
}

func (f *fakeReplica) ResyncCatalog() error { return nil }

func (f *fakeReplica) SyncCatalog(epoch, hash uint64, log []catalog.DDL) error {
	cur := f.CatalogEpoch()
	if cur > epoch {
		return fmt.Errorf("fake: catalog at %d, checkpoint at %d", cur, epoch)
	}
	if cur == epoch {
		return nil
	}
	_, err := f.ApplyDDL(log[cur:])
	return err
}

func (f *fakeReplica) CheckCatalog(q *query.Query) error {
	l := f.lin
	l.catMu.Lock()
	defer l.catMu.Unlock()
	for _, t := range q.Tables {
		if l.dropped[t.Table] {
			return fmt.Errorf("fake: table %q dropped: %w", t.Table, fosserr.ErrCatalogStale)
		}
	}
	return nil
}

func (f *fakeReplica) CatalogEpoch() uint64 {
	f.lin.catMu.Lock()
	defer f.lin.catMu.Unlock()
	return uint64(len(f.lin.catLog))
}

func (f *fakeReplica) CatalogHash() uint64 { return 0 }

func (f *fakeReplica) CatalogLog() []catalog.DDL {
	f.lin.catMu.Lock()
	defer f.lin.catMu.Unlock()
	return append([]catalog.DDL(nil), f.lin.catLog...)
}

func (f *fakeReplica) OptimizeEvalContext(ctx context.Context, q *query.Query) (*planner.PlanEval, bool, time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, 0, err
	}
	n := f.serves.Add(1)
	if f.onServe != nil {
		f.onServe(n)
	}
	return &planner.PlanEval{Q: q, Latency: math.NaN()}, false, time.Microsecond, nil
}

func (f *fakeReplica) BackendName() string { return "fake" }

func (f *fakeReplica) TrainOnContext(ctx context.Context, qs []*query.Query, iterations int, _ func(learner.IterStats)) error {
	if f.trainDelay > 0 {
		select {
		case <-time.After(f.trainDelay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	f.trains.Add(1)
	f.wMu.Lock()
	f.weights += "+t"
	f.wMu.Unlock()
	if n := f.lin.trainFails.Load(); n > 0 && f.lin.trainFails.CompareAndSwap(n, n-1) {
		return errors.New("fake: training failed")
	}
	return nil
}

func (f *fakeReplica) Save() ([]byte, error) {
	if f.lin.saveFail.Load() {
		return nil, errors.New("fake: save refused")
	}
	f.saves.Add(1)
	return []byte(f.currentWeights()), nil
}

func (f *fakeReplica) Load(blob []byte) error {
	f.loads.Add(1)
	if f.lin.loadFail.Load() {
		return errors.New("fake: load refused")
	}
	f.wMu.Lock()
	f.weights = string(blob)
	f.wMu.Unlock()
	return nil
}

func (f *fakeReplica) ExpertPlan(q *query.Query) (*plan.CP, time.Duration, error) {
	return &plan.CP{}, time.Microsecond, nil
}
func (f *fakeReplica) Execute(cp *plan.CP) float64 {
	if f.execNaN.Load() {
		return math.NaN()
	}
	return 10
}
func (f *fakeReplica) Buffer() *learner.Buffer        { return f.buf }
func (f *fakeReplica) CacheStats() runtime.CacheStats { return runtime.CacheStats{} }

func (f *fakeReplica) RebuildEval(q *query.Query, icp plan.ICP, step int) (*planner.PlanEval, error) {
	return &planner.PlanEval{Q: q, ICP: icp, Step: step, Latency: math.NaN()}, nil
}

func syncConfig() Config {
	return Config{
		Detector:          DetectorConfig{Window: 4, Threshold: 1.2, MinSamples: 4, NoveltyFrac: 0},
		Cooldown:          1,
		RetrainIterations: 1,
		RetrainQueries:    16,
		Background:        false,
	}
}

// TestRecordJournalsAndReplays: with a store attached, every accepted
// Record lands in the WAL before ingestion (zero latencies included,
// negative rejected), and replaying the journal into a fresh loop
// reconstructs the buffer and the drift detector's window.
func TestRecordJournalsAndReplays(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := syncConfig()
	cfg.Detector.Threshold = 100 // never drift
	cfg.Store = st
	blue := newFake("blue")
	lp := New(cfg, blue, nil)

	rec := func(v int64, lat float64) {
		q := fq(v)
		pe, _, _, err := blue.OptimizeEvalContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		lp.Record(q, pe, lat)
	}
	rec(1, 5)
	rec(2, 0)  // sub-millisecond execution: must be accepted
	rec(3, -1) // negative: rejected, never journaled
	rec(4, 20)

	stats := lp.Stats()
	if stats.Recorded != 3 {
		t.Fatalf("recorded %d, want 3 (zero accepted, negative rejected)", stats.Recorded)
	}
	if stats.WALEntries != 3 || stats.WALErrors != 0 {
		t.Fatalf("wal entries %d errors %d, want 3/0", stats.WALEntries, stats.WALErrors)
	}
	liveWindow := lp.lrn.det.WindowState()
	st.Close()

	// Replay into a fresh loop (fresh store handle over the same dir).
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var entries []store.WALEntry
	if err := st2.WAL().Replay(0, func(e store.WALEntry) error { entries = append(entries, e); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("journal holds %d entries, want 3", len(entries))
	}
	cfg2 := cfg
	cfg2.Store = st2
	blue2 := newFake("blue2")
	lp2 := New(cfg2, blue2, nil)
	n, err := lp2.Replay(entries)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("replayed %d, want 3", n)
	}
	if got := blue2.buf.Size(); got != 3 {
		t.Fatalf("buffer rebuilt with %d executions, want 3", got)
	}
	// Replay runs the feedback transition only: nothing forks.
	if n := len(blue2.forked()); n != 0 || lp2.Active() != Replica(blue2) {
		t.Fatalf("replay forked %d replicas or moved the active one", n)
	}
	replayWindow := lp2.lrn.det.WindowState()
	if replayWindow.Mean != liveWindow.Mean || replayWindow.NovelFrac != liveWindow.NovelFrac {
		t.Fatalf("replayed window %+v != live window %+v", replayWindow, liveWindow)
	}
	if got := lp2.Stats(); got.Replayed != 3 {
		t.Fatalf("stats replayed %d, want 3", got.Replayed)
	}
}

// TestDetectorRegression: the window must fire only once MinSamples are in
// and the mean ratio crosses the threshold.
func TestDetectorRegression(t *testing.T) {
	d := NewDetector(DetectorConfig{Window: 4, Threshold: 1.5, MinSamples: 3}, nil)
	if sig := d.Observe(1, 9.0); sig.Drift {
		t.Fatal("drift before MinSamples")
	}
	if sig := d.Observe(2, 9.0); sig.Drift {
		t.Fatal("drift before MinSamples")
	}
	sig := d.Observe(3, 9.0)
	if !sig.Drift || sig.Reason != "regression" {
		t.Fatalf("expected regression drift, got %+v", sig)
	}
	d.Reset()
	if st := d.WindowState(); st.Mean != 0 {
		t.Fatalf("window survived reset: %+v", st)
	}
	// healthy ratios never fire
	for i := 0; i < 10; i++ {
		if sig := d.Observe(uint64(100+i), 1.0); sig.Drift {
			t.Fatalf("healthy window drifted: %+v", sig)
		}
	}
}

// TestDetectorRollingEviction: old observations must leave the window.
func TestDetectorRollingEviction(t *testing.T) {
	d := NewDetector(DetectorConfig{Window: 2, Threshold: 1.5, MinSamples: 2}, nil)
	d.Observe(1, 10)
	d.Observe(2, 10)
	// two healthy observations push both spikes out
	d.Observe(3, 1)
	sig := d.Observe(4, 1)
	if sig.Drift {
		t.Fatalf("evicted spikes still drifting: %+v", sig)
	}
	if math.Abs(sig.Mean-1) > 1e-12 {
		t.Fatalf("window mean %v after eviction, want 1", sig.Mean)
	}
}

// TestDriftSurvivesOutlierFeedback: one outlier must not switch regression
// drift detection off for the rest of the epoch. A ratio of 1e300 swamps a
// running sum, so subtracting it back out leaves the sum near zero; once the
// outlier has left the window the mean must read the 1.2s the window holds
// again. NaN and +Inf latencies never reach the window at all: Record
// refuses them as it refuses negatives.
func TestDriftSurvivesOutlierFeedback(t *testing.T) {
	d := NewDetector(DetectorConfig{Window: 16, Threshold: 1.1, MinSamples: 8}, nil)
	for i := 0; i < 16; i++ {
		d.Observe(1, 1.2)
	}
	d.Observe(1, 1e300)
	var sig Signal
	for i := 0; i < 64; i++ {
		sig = d.Observe(1, 1.2)
	}
	if math.Abs(sig.Mean-1.2) > 1e-9 || !sig.Drift {
		t.Fatalf("window of 1.2s after the outlier left: mean %v drift %v, want 1.2 and drift", sig.Mean, sig.Drift)
	}

	cfg := syncConfig()
	cfg.Detector = DetectorConfig{Window: 4, Threshold: 100, MinSamples: 4}
	lp := New(cfg, newFake("blue"), nil)
	res, err := lp.Serve(context.Background(), fq(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, lat := range []float64{math.NaN(), math.Inf(1)} {
		if lp.Record(fq(1), res.Eval, lat) {
			t.Fatalf("latency %v accepted", lat)
		}
	}
	for i := 0; i < 4; i++ {
		if !lp.Record(fq(1), res.Eval, 12) {
			t.Fatal("finite latency refused")
		}
	}
	if st := lp.Stats(); st.Recorded != 4 || math.Abs(st.WindowMean-1.2) > 1e-9 {
		t.Fatalf("recorded %d, window mean %v: want 4 and 1.2 (the fake expert runs at 10)", st.Recorded, st.WindowMean)
	}
}

// TestDetectorNovelty: unseen fingerprints signal drift even at healthy
// latencies; known fingerprints never do.
func TestDetectorNovelty(t *testing.T) {
	d := NewDetector(DetectorConfig{Window: 4, Threshold: 2, MinSamples: 4, NoveltyFrac: 0.5}, []uint64{1, 2})
	d.Observe(1, 1)
	d.Observe(2, 1)
	d.Observe(3, 1) // novel
	sig := d.Observe(4, 1)
	if !sig.Drift || sig.Reason != "novelty" {
		t.Fatalf("expected novelty drift, got %+v", sig)
	}
	// second pass: 3 and 4 are now known, so the same stream stays quiet
	d.Reset()
	d.Observe(1, 1)
	d.Observe(2, 1)
	d.Observe(3, 1)
	if sig := d.Observe(4, 1); sig.Drift {
		t.Fatalf("re-seen fingerprints drifted: %+v", sig)
	}
}

// TestLoopSwapsOnRegression drives the full synchronous cycle: sustained
// regression → retrain on a fork of the active replica → atomic promotion
// of the fork with an epoch bump; the demoted replica is never touched.
func TestLoopSwapsOnRegression(t *testing.T) {
	blue := newFake("blue")
	lp := New(syncConfig(), blue, nil)

	if lp.Epoch() != 1 || lp.Active() != Replica(blue) {
		t.Fatal("blue must serve at epoch 1")
	}
	for i := int64(0); i < 4; i++ {
		res, err := lp.Serve(context.Background(), fq(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Epoch != 1 {
			t.Fatalf("pre-swap epoch %d", res.Epoch)
		}
		lp.Record(fq(i), res.Eval, 100) // expert executes at 10 → ratio 10
	}
	st := lp.Stats()
	if st.Swaps != 1 || st.Retrains != 1 || st.Drifts != 1 {
		t.Fatalf("expected one drift/retrain/swap, got %+v", st)
	}
	forks := blue.forked()
	if len(forks) != 1 || lp.Epoch() != 2 || lp.Active() != Replica(forks[0]) {
		t.Fatalf("blue's fork must serve at epoch 2 (forks=%d epoch=%d)", len(forks), lp.Epoch())
	}
	fork := forks[0]
	if fork.trains.Load() != 1 || fork.currentWeights() != "w0+t" {
		t.Fatalf("the fork trained %d times to %q, want once from blue's w0", fork.trains.Load(), fork.currentWeights())
	}
	if blue.trains.Load() != 0 || blue.loads.Load() != 0 || blue.currentWeights() != "w0" {
		t.Fatalf("demoted replica touched: trains=%d loads=%d weights=%q",
			blue.trains.Load(), blue.loads.Load(), blue.currentWeights())
	}
	// the drift window must restart clean after the swap
	if win := lp.lrn.det.WindowState(); win.Mean != 0 {
		t.Fatalf("detector window survived the swap: %+v", win)
	}
	// the fork learned from the one buffer the feedback reached
	if fork.Buffer() != blue.buf || blue.buf.Size() != 4 {
		t.Fatalf("fork buffer shared=%v, size %d, want shared and 4", fork.Buffer() == blue.buf, blue.buf.Size())
	}
}

// TestLoopCooldown: a second drift inside the cooldown must not retrain.
func TestLoopCooldown(t *testing.T) {
	cfg := syncConfig()
	cfg.Cooldown = 8
	blue := newFake("blue")
	lp := New(cfg, blue, nil)

	record := func(n int, base int64) {
		for i := int64(0); i < int64(n); i++ {
			res, err := lp.Serve(context.Background(), fq(base+i))
			if err != nil {
				t.Fatal(err)
			}
			lp.Record(fq(base+i), res.Eval, 100)
		}
	}
	record(8, 0)
	if st := lp.Stats(); st.Swaps != 1 {
		t.Fatalf("first drift did not swap: %+v", st)
	}
	// regressions keep coming but the cooldown holds
	record(7, 100)
	if st := lp.Stats(); st.Swaps != 1 {
		t.Fatalf("swap thrash inside cooldown: %+v", st)
	}
	record(1, 200)
	if st := lp.Stats(); st.Swaps != 2 {
		t.Fatalf("cooldown expiry did not allow the second retrain: %+v", st)
	}
}

// TestServeNeverBlocksDuringRetrain holds a slow background retrain open and
// requires Serve traffic to keep flowing through it (run with -race: this is
// also the concurrency soak for the swap protocol).
func TestServeNeverBlocksDuringRetrain(t *testing.T) {
	cfg := syncConfig()
	cfg.Background = true
	blue := newFake("blue")
	blue.trainDelay = 150 * time.Millisecond // inherited by the fork
	lp := New(cfg, blue, nil)

	for i := int64(0); i < 4; i++ {
		res, err := lp.Serve(context.Background(), fq(i))
		if err != nil {
			t.Fatal(err)
		}
		lp.Record(fq(i), res.Eval, 100)
	}
	// the background retrain is now sleeping inside TrainOn
	var during atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int64(0); i < 50; i++ {
				res, err := lp.Serve(context.Background(), fq(1000+i))
				if err != nil {
					t.Error(err)
					return
				}
				if res.Eval == nil {
					t.Error("nil plan during retrain")
					return
				}
				if lp.Stats().Retraining {
					during.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	lp.Wait()
	if during.Load() == 0 {
		t.Fatal("no request overlapped the retrain window; the soak proved nothing")
	}
	if st := lp.Stats(); st.Swaps != 1 || st.RetrainErrors != 0 {
		t.Fatalf("background retrain did not complete cleanly: %+v", st)
	}
	if lp.Epoch() != 2 {
		t.Fatalf("epoch %d after background swap, want 2", lp.Epoch())
	}
}

// TestFailedRetrainLeavesNothingBehind: a retrain whose training fails after
// mutating its replica's weights is dropped whole — serving stays on the
// active replica, whose weights never moved, and the next retrain forks the
// served generation, not the half-trained one. An ApplyCheckpoint whose Load
// fails likewise leaves serving untouched.
func TestFailedRetrainLeavesNothingBehind(t *testing.T) {
	blue := newFake("blue")
	blue.lin.trainFails.Store(1)
	lp := New(syncConfig(), blue, nil)
	record := func(v int64) {
		t.Helper()
		res, err := lp.Serve(context.Background(), fq(v))
		if err != nil {
			t.Fatal(err)
		}
		lp.Record(fq(v), res.Eval, 100) // ratio 10: the full window drifts
	}
	for v := int64(0); v < 4; v++ {
		record(v)
	}
	if st := lp.Stats(); st.Retrains != 1 || st.RetrainErrors != 1 || st.Swaps != 0 {
		t.Fatalf("want one failed retrain and no swap, got %+v", st)
	}
	if lp.Active() != Replica(blue) || blue.currentWeights() != "w0" {
		t.Fatalf("the failed retrain moved serving: weights %q", blue.currentWeights())
	}
	// The window still drifts, so the next record retrains again.
	record(4)
	forks := blue.forked()
	if st := lp.Stats(); st.Swaps != 1 || len(forks) != 2 || lp.Active() != Replica(forks[1]) {
		t.Fatalf("second retrain did not publish its fork: forks=%d %+v", len(forks), st)
	}
	if got := forks[1].currentWeights(); got != "w0+t" {
		t.Fatalf("published weights %q, want one training from the served w0 (the failed fork holds %q)",
			got, forks[0].currentWeights())
	}

	cfg := syncConfig()
	cfg.Follower = true
	f := newFake("follower")
	lpf := New(cfg, f, nil)
	f.lin.loadFail.Store(true)
	if err := lpf.ApplyCheckpoint(store.Checkpoint{Model: []byte("g5"), Epoch: 5}); err == nil {
		t.Fatal("a checkpoint whose Load fails was applied")
	}
	if lpf.Epoch() != 1 || lpf.Active() != Replica(f) || lpf.Stats().Swaps != 0 || f.currentWeights() != "w0" || f.loads.Load() != 0 {
		t.Fatalf("failed apply moved serving: epoch %d, weights %q, loads %d", lpf.Epoch(), f.currentWeights(), f.loads.Load())
	}
	if res, err := lpf.Serve(context.Background(), fq(1)); err != nil || res.Epoch != 1 {
		t.Fatalf("serve after a failed apply: epoch %d, %v", res.Epoch, err)
	}
	f.lin.loadFail.Store(false)
	if err := lpf.ApplyCheckpoint(store.Checkpoint{Model: []byte("g5"), Epoch: 5}); err != nil {
		t.Fatal(err)
	}
	if a := lpf.Active().(*fakeReplica); lpf.Epoch() != 5 || a.currentWeights() != "g5" {
		t.Fatalf("retried apply: epoch %d, weights %q", lpf.Epoch(), a.currentWeights())
	}
}

// TestServeAndRecordThroughBackgroundRetrain: Serve and Record keep flowing
// while a background retrain's fork trains. Feedback recorded meanwhile is
// in the published replica's buffer exactly once, and the demoted replica's
// weights are byte-for-byte what they were. CI runs it under -race
// -count=10.
func TestServeAndRecordThroughBackgroundRetrain(t *testing.T) {
	cfg := syncConfig()
	cfg.Background = true
	blue := newFake("blue")
	blue.trainDelay = 50 * time.Millisecond // inherited by the fork
	lp := New(cfg, blue, nil)
	before, err := blue.Save()
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		res, err := lp.Serve(context.Background(), fq(i))
		if err != nil {
			t.Fatal(err)
		}
		lp.Record(fq(i), res.Eval, 100)
	}
	if !lp.Stats().Retraining {
		t.Fatal("background retrain did not start")
	}

	var mu sync.Mutex
	var during []string // feedback recorded while the fork trained
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 200 && lp.Stats().Retraining; i++ {
				q := fq(1000 + 1000*g + i)
				res, err := lp.Serve(context.Background(), q)
				if err != nil {
					t.Error(err)
					return
				}
				if !lp.Record(q, res.Eval, 5) { // a win: no second drift
					t.Error("feedback refused")
					return
				}
				mu.Lock()
				during = append(during, q.ID)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	lp.Wait()

	forks := blue.forked()
	if st := lp.Stats(); st.Swaps != 1 || st.RetrainErrors != 0 || len(forks) != 1 || lp.Active() != Replica(forks[0]) {
		t.Fatalf("retrain did not publish its fork cleanly: forks=%d %+v", len(forks), st)
	}
	if len(during) == 0 {
		t.Fatal("no feedback overlapped the retrain; the test proved nothing")
	}
	held := map[string]int{}
	for _, r := range lp.Active().Buffer().Export() {
		held[r.Query.ID]++
	}
	for _, id := range during {
		if held[id] != 1 {
			t.Fatalf("feedback on %s is in the published buffer %d times, want once", id, held[id])
		}
	}
	after, err := blue.Save()
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) || blue.trains.Load() != 0 || blue.loads.Load() != 0 {
		t.Fatalf("demoted replica changed: %q -> %q (trains %d, loads %d)", before, after, blue.trains.Load(), blue.loads.Load())
	}
}

// TestApplyDDLBumpsEpochAndRefusesStale: a loop-level DDL apply bumps the
// serving epoch (so every epoch-keyed cache invalidates) and the catalog
// epoch, journals a KindDDL record, and afterwards both Serve and Record
// refuse queries over the dropped table — counted in StaleInvalidations —
// while fresh queries keep flowing at the new epoch.
func TestApplyDDLBumpsEpochAndRefusesStale(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := syncConfig()
	cfg.Detector.Threshold = 100 // never drift
	cfg.Store = st
	blue := newFake("blue")
	lp := New(cfg, blue, nil)

	res, err := lp.Serve(context.Background(), fq(1))
	if err != nil {
		t.Fatal(err)
	}
	if !lp.Record(fq(1), res.Eval, 5) {
		t.Fatal("pre-DDL record refused")
	}

	epoch, err := lp.ApplyDDL([]catalog.DDL{{Kind: catalog.DDLDropTable, Table: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("catalog epoch %d, want 1", epoch)
	}
	if lp.Epoch() != 2 {
		t.Fatalf("serving epoch %d after DDL, want 2 (bump without swap)", lp.Epoch())
	}
	if lp.Active() != Replica(blue) {
		t.Fatal("DDL must republish the same replica, not swap")
	}

	// Queries over the dropped table are refused on both paths.
	if _, err := lp.Serve(context.Background(), fq(2)); !errIsStale(err) {
		t.Fatalf("serve of dropped table: %v, want ErrCatalogStale", err)
	}
	if lp.Record(fq(3), res.Eval, 5) {
		t.Fatal("stale record accepted")
	}
	stats := lp.Stats()
	if stats.CatalogEpoch != 1 || stats.CatalogApplies != 1 {
		t.Fatalf("catalog counters %+v", stats)
	}
	if stats.StaleInvalidations != 2 {
		t.Fatalf("stale invalidations %d, want 2", stats.StaleInvalidations)
	}

	// The batch is journaled as a KindDDL record at the bumped epoch.
	var ddl []store.WALEntry
	if err := st.WAL().Replay(0, func(e store.WALEntry) error {
		if e.Kind == store.KindDDL {
			ddl = append(ddl, e)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ddl) != 1 || ddl[0].Epoch != 2 || len(ddl[0].DDL) != 1 {
		t.Fatalf("ddl journal %+v, want one KindDDL at epoch 2", ddl)
	}
	// ApplyDDL checkpoints immediately: a warm restart resumes post-DDL.
	if stats.Checkpoints == 0 {
		t.Fatal("no checkpoint after DDL apply")
	}

	// A fresh-table query still serves, at the bumped epoch.
	q := &query.Query{ID: "qb", Template: "t", Tables: []query.TableRef{{Table: "b", Alias: "b"}}}
	res2, err := lp.Serve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Epoch != 2 {
		t.Fatalf("post-DDL serve at epoch %d, want 2", res2.Epoch)
	}

	// A batch with one stale row is refused before any row is served.
	served := lp.Stats().Served
	if _, err := lp.ServeBatch(context.Background(), []*query.Query{q, fq(4)}); !errIsStale(err) {
		t.Fatalf("batch with a dropped-table row: %v, want ErrCatalogStale", err)
	}
	if got := lp.Stats(); got.Served != served || got.StaleInvalidations != 3 {
		t.Fatalf("refused batch moved the counters: served %d→%d, stale %d", served, got.Served, got.StaleInvalidations)
	}
}

func errIsStale(err error) bool {
	return err != nil && errors.Is(err, fosserr.ErrCatalogStale)
}

// TestApplyDDLRefusedOnFollower: a follower's catalog advances only through
// ApplyCheckpoint.
func TestApplyDDLRefusedOnFollower(t *testing.T) {
	cfg := syncConfig()
	cfg.Follower = true
	lp := New(cfg, newFake("blue"), nil)
	if _, err := lp.ApplyDDL([]catalog.DDL{{Kind: catalog.DDLDropTable, Table: "a"}}); !errors.Is(err, fosserr.ErrNotLeader) {
		t.Fatalf("follower ApplyDDL: %v, want ErrNotLeader", err)
	}
}

// TestLoopStep: the convenience turn serves, executes, and records.
func TestLoopStep(t *testing.T) {
	blue := newFake("blue")
	cfg := syncConfig()
	cfg.Detector.Threshold = 100 // never drift
	lp := New(cfg, blue, nil)
	res, lat, err := lp.Step(context.Background(), fq(1))
	if err != nil {
		t.Fatal(err)
	}
	if lat != 10 {
		t.Fatalf("latency %v, want the fake's 10", lat)
	}
	if res.Epoch != 1 {
		t.Fatalf("epoch %d", res.Epoch)
	}
	st := lp.Stats()
	if st.Served != 1 || st.Recorded != 1 {
		t.Fatalf("counters %+v", st)
	}
}

// TestServeBatchOneGenerationAcrossSwap: a hot-swap landing mid-batch
// re-serves the batch, so every row names the same (new) epoch.
func TestServeBatchOneGenerationAcrossSwap(t *testing.T) {
	blue := newFake("blue")
	cfg := syncConfig()
	cfg.Detector.Threshold = 100 // never drift; the test swaps by hand
	lp := New(cfg, blue, nil)
	if _, _, err := lp.Step(context.Background(), fq(0)); err != nil {
		t.Fatal(err) // gives the retrain a recent query to train on
	}
	blue.onServe = func(n int64) {
		if n == 3 { // the second serve of the batch below
			lp.triggerRetrain()
		}
	}
	qs := []*query.Query{fq(1), fq(2), fq(3), fq(4)}
	out, err := lp.ServeBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if lp.Stats().Swaps != 1 {
		t.Fatalf("swaps %d, want the injected one", lp.Stats().Swaps)
	}
	if len(out) != len(qs) {
		t.Fatalf("rows %d", len(out))
	}
	for i, res := range out {
		if res.Epoch != 2 || res.Eval.Q != qs[i] {
			t.Fatalf("row %d: epoch %d query %s, want every row at epoch 2 in order", i, res.Epoch, res.Eval.Q.ID)
		}
	}
}
