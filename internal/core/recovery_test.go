package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"github.com/foss-db/foss/internal/backend"
	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/store"
	"github.com/foss-db/foss/internal/workload"
)

// recoveryConfig shrinks the training budget: recovery semantics do not
// depend on model quality.
func recoveryConfig(c *Config) {
	c.Learner.Iterations = 1
	c.Learner.RealPerIter = 5
	c.Learner.SimPerIter = 12
	c.Learner.ValidatePerIter = 5
	c.Learner.InferenceRollouts = 1 // greedy only: plan choice is pure weights
}

// durableLoopConfig keeps the drift detector quiet (this test is about
// durability, not adaptation) and checkpoints frequently.
func durableLoopConfig(st *store.Store) service.Config {
	return service.Config{
		Detector:          service.DetectorConfig{Window: 8, Threshold: 1e9, MinSamples: 8, NoveltyFrac: 0},
		Cooldown:          1 << 30,
		RetrainIterations: 1,
		Background:        false,
		Store:             st,
		CheckpointEvery:   0, // explicit checkpoints only: the test controls the cadence
	}
}

// TestCrashRecoveryBitIdentical is the acceptance-criteria test: run the
// online loop with a store attached, checkpoint mid-stream, keep serving
// (those records live only in the WAL), then "crash" — abandon the process
// state — and rebuild a fresh System from disk alone. The recovered doctor
// must resume at the pre-crash epoch, hold the pre-crash execution buffer,
// and serve bit-identical plans; a second recovery from the same directory
// must be indistinguishable from the first (WAL-replay determinism).
func TestCrashRecoveryBitIdentical(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	sys := smallSystem(t, recoveryConfig)
	if err := sys.TrainContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	info, err := sys.RecoverOnline(durableLoopConfig(st), st)
	if err != nil {
		t.Fatal(err)
	}
	if info.Recovered {
		t.Fatal("fresh store claims recovery")
	}

	queries := sys.W.Train[:10]
	// Serve + record the first half, checkpoint, then the second half: the
	// post-checkpoint feedback exists only in the WAL.
	for _, q := range queries[:5] {
		if _, _, err := sys.ServeStepContext(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Online().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries[5:] {
		if _, _, err := sys.ServeStepContext(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}

	// The pre-crash ground truth: plans and buffer for the whole stream.
	wantPlans := make([]string, len(queries))
	wantLat := make([]float64, len(queries))
	for i, q := range queries {
		res, err := sys.ServeContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		wantPlans[i] = res.Eval.ICP.Key()
		wantLat[i] = sys.Execute(res.Eval.CP)
	}
	wantEpoch := sys.OnlineStats().Epoch
	wantBuffer := len(sys.ExportBuffer())
	preStats := sys.OnlineStats()
	if preStats.WALEntries == 0 {
		t.Fatal("no WAL entries journaled during serving")
	}
	if err := st.Close(); err != nil { // crash: the process state is gone
		t.Fatal(err)
	}

	recover := func(label string) (*System, RecoveryInfo, *store.Store) {
		st2, err := store.Open(dir)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fresh := smallSystem(t, func(c *Config) {
			recoveryConfig(c)
			c.Seed = 777 // different init: recovery must overwrite every weight
		})
		info, err := fresh.RecoverOnline(durableLoopConfig(st2), st2)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !info.Recovered {
			t.Fatalf("%s: checkpoint on disk not recovered", label)
		}
		return fresh, info, st2
	}

	sysA, infoA, stA2 := recover("first recovery")
	if got := sysA.OnlineStats().Epoch; got != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", got, wantEpoch)
	}
	if infoA.WALReplayed == 0 {
		t.Fatal("post-checkpoint feedback not replayed from the WAL")
	}
	if got := len(sysA.ExportBuffer()); got != wantBuffer {
		t.Fatalf("recovered buffer has %d executions, want %d", got, wantBuffer)
	}
	if got := sysA.OnlineStats().RecoveredEpoch; got != wantEpoch {
		t.Fatalf("stats recovered epoch %d, want %d", got, wantEpoch)
	}
	for i, q := range queries {
		res, err := sysA.ServeContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Eval.ICP.Key() != wantPlans[i] {
			t.Fatalf("query %s: recovered plan %s != pre-crash %s", q.ID, res.Eval.ICP.Key(), wantPlans[i])
		}
		if lat := sysA.Execute(res.Eval.CP); lat != wantLat[i] {
			t.Fatalf("query %s: recovered latency %v != pre-crash %v", q.ID, lat, wantLat[i])
		}
	}

	// Determinism: a second, independent recovery from the same directory
	// reconstructs identical state — buffer order included (the AAM's
	// training-sample order depends on it). The first recovery's store must
	// release the directory lock first, as a real restart would.
	if err := stA2.Close(); err != nil {
		t.Fatal(err)
	}
	sysB, infoB, stB2 := recover("second recovery")
	defer stB2.Close()
	if infoA != infoB {
		t.Fatalf("recoveries diverge: %+v vs %+v", infoA, infoB)
	}
	bufA, bufB := sysA.ExportBuffer(), sysB.ExportBuffer()
	if len(bufA) != len(bufB) {
		t.Fatalf("buffer sizes diverge: %d vs %d", len(bufA), len(bufB))
	}
	for i := range bufA {
		if bufA[i].Query.ID != bufB[i].Query.ID || !bufA[i].ICP.Equal(bufB[i].ICP) ||
			bufA[i].Step != bufB[i].Step || bufA[i].LatencyMs != bufB[i].LatencyMs {
			t.Fatalf("buffer entry %d diverges: %+v vs %+v", i, bufA[i], bufB[i])
		}
	}
	stA, stB := sysA.OnlineStats(), sysB.OnlineStats()
	if stA.WindowMean != stB.WindowMean || stA.WindowNovel != stB.WindowNovel || stA.Replayed != stB.Replayed {
		t.Fatalf("detector state diverges: %+v vs %+v", stA, stB)
	}
}

// TestDDLWarmRestartResumesAtPostDDLCatalogEpoch: a DDL applied mid-stream
// checkpoints immediately, so a crash after it warm-starts on the evolved
// schema — same catalog epoch and hash, no re-applied migration, serving
// intact.
func TestDDLWarmRestartResumesAtPostDDLCatalogEpoch(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys := smallSystem(t, recoveryConfig)
	if err := sys.TrainContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RecoverOnline(durableLoopConfig(st), st); err != nil {
		t.Fatal(err)
	}
	for _, q := range sys.W.Train[:3] {
		if _, _, err := sys.ServeStepContext(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	epoch, err := sys.Online().ApplyDDL([]catalog.DDL{
		{Kind: catalog.DDLAddTable, Table: "evolved", Columns: []catalog.Column{{Name: "id", Indexed: true}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("catalog epoch %d after one DDL, want 1", epoch)
	}
	for _, q := range sys.W.Train[3:6] {
		if _, _, err := sys.ServeStepContext(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	wantHash := sys.CatalogHash()
	if err := st.Close(); err != nil { // crash
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	fresh := smallSystem(t, func(c *Config) { recoveryConfig(c); c.Seed = 999 })
	info, err := fresh.RecoverOnline(durableLoopConfig(st2), st2)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Recovered || info.CatalogEpoch != epoch {
		t.Fatalf("recovery info %+v, want recovered at catalog epoch %d", info, epoch)
	}
	if got := fresh.CatalogEpoch(); got != epoch {
		t.Fatalf("recovered system at catalog epoch %d, want %d", got, epoch)
	}
	if got := fresh.CatalogHash(); got != wantHash {
		t.Fatalf("recovered catalog hash %016x, want %016x", got, wantHash)
	}
	if got := fresh.Online().CatalogEpoch(); got != epoch {
		t.Fatalf("recovered loop at catalog epoch %d, want %d", got, epoch)
	}
	// The recovered doctor serves the steady workload on the evolved schema.
	if _, err := fresh.ServeContext(context.Background(), sys.W.Test[0]); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRejections is the table-driven guard around Load: snapshots
// from another backend, another format version, or a damaged file must be
// classified by sentinel errors — never loaded silently.
func TestSnapshotRejections(t *testing.T) {
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.35})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	recoveryConfig(&cfg)
	cfg.Learner.Iterations = 0
	newSys := func(be backend.Backend) *System {
		opts := []Option{}
		if be != nil {
			opts = append(opts, WithBackend(be))
		}
		sys, err := New(w, cfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	selinger := newSys(nil)
	blob, err := selinger.Save()
	if err != nil {
		t.Fatal(err)
	}
	env, err := store.Unseal(blob)
	if err != nil {
		t.Fatal(err)
	}
	reseal := func(backendName string, payload []byte) []byte {
		b, err := store.Seal(backendName, payload)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	corrupt := append([]byte(nil), blob...)
	corrupt[len(corrupt)/2] ^= 0x01

	cases := []struct {
		name   string
		target *System
		data   []byte
		want   error
	}{
		{"cross-backend (selinger snapshot into gaussim)", newSys(backend.NewGaussim(w.DB, w.Stats)), blob, fosserr.ErrBackendMismatch},
		{"forged backend tag", selinger, reseal("gaussim", env.Payload), fosserr.ErrBackendMismatch},
		{"version skew", selinger, versionSkewed(t, env.Payload), fosserr.ErrSnapshotVersion},
		{"corrupt payload", selinger, corrupt, fosserr.ErrSnapshotCorrupt},
		{"truncated", selinger, blob[:len(blob)/3], fosserr.ErrSnapshotCorrupt},
		{"legacy raw gob", selinger, env.Payload, fosserr.ErrSnapshotCorrupt},
		{"empty", selinger, nil, fosserr.ErrSnapshotCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.target.Load(tc.data)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Load = %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}

	// The valid snapshot still loads — the rejections above are not a
	// gate that rejects everything.
	if err := newSys(nil).Load(blob); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
}

// versionSkewed rebuilds an envelope claiming a future format version. It
// goes through the store package's own Seal, then patches the version by
// re-encoding — kept here so core's tests do not depend on envelope wire
// internals beyond what Seal/Unseal expose.
func versionSkewed(t *testing.T, payload []byte) []byte {
	t.Helper()
	b, err := store.SealVersion(store.Version+1, "selinger", payload)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecoverOnlineColdStartCheckpoints proves the fossd cold-start flow:
// attach a store, write an explicit checkpoint, and the next process can
// warm-start. Exercised at the core level so the CI recovery gate has a
// fast in-process mirror.
func TestRecoverOnlineColdStartCheckpoints(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys := smallSystem(t, recoveryConfig)
	if err := sys.TrainContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RecoverOnline(durableLoopConfig(st), st); err != nil {
		t.Fatal(err)
	}
	name, err := sys.Online().Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if name == "" {
		t.Fatal("empty checkpoint name")
	}
	st.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if m, ok := st2.Latest(); !ok || m.Checkpoint != name {
		t.Fatalf("manifest %+v, want checkpoint %s", m, name)
	}
	fresh := smallSystem(t, func(c *Config) { recoveryConfig(c); c.Seed = 42 })
	info, err := fresh.RecoverOnline(durableLoopConfig(st2), st2)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Recovered || info.Epoch != 1 {
		t.Fatalf("warm start info %+v", info)
	}
	q := sys.W.Test[0]
	a, err := sys.ServeContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.ServeContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Eval.ICP.Key() != b.Eval.ICP.Key() {
		t.Fatal("warm-started system serves a different plan")
	}
}

// retrainLoopConfig retrains on exactly the records that regress past ten
// times the expert, and on no other: a one-record window and cooldown leave
// nothing for a checkpoint to drop that could move a trigger.
func retrainLoopConfig(st *store.Store) service.Config {
	return service.Config{
		Detector:          service.DetectorConfig{Window: 1, Threshold: 10, MinSamples: 1, NoveltyFrac: 0},
		Cooldown:          1,
		RetrainIterations: 1,
		RetrainQueries:    4,
		Background:        false,
		Store:             st,
	}
}

// TestWarmRestartRetrainsLikeLiveLoop: a retrain starts from the served
// weights and the buffer alone, so a loop recovered from a checkpoint plus
// its WAL retrains to the same bytes as the loop it replaced. The live run
// retrains and swaps, records more feedback, checkpoints (the crash point),
// journals one record past it, and then feeds the records up to its second
// retrain. The second run repeats the run up to the crash, recovers into a
// fresh System with the same configuration, and feeds the same records.
func TestWarmRestartRetrainsLikeLiveLoop(t *testing.T) {
	ctx := context.Background()
	// feed serves q through the loop and records it at the expert's latency
	// (ratio 1) or, to trip a retrain, at a hundred times it.
	feed := func(sys *System, q *query.Query, regress bool) {
		t.Helper()
		res, err := sys.ServeContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		ecp, _, err := sys.ExpertPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		lat := sys.Execute(ecp)
		if !(lat > 0) {
			t.Fatalf("expert latency %v for %s: the ratios below need a positive one", lat, q.ID)
		}
		if regress {
			lat *= 100
		}
		if err := sys.Record(q, res.Eval, lat); err != nil {
			t.Fatal(err)
		}
	}
	// Disjoint query sets per phase: the recent ring is not checkpointed, so
	// the four queries after the crash must be the whole ring in both runs.
	toCrash := func(dir string) (*System, *store.Store) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		sys := smallSystem(t, recoveryConfig)
		if err := sys.TrainContext(ctx, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RecoverOnline(retrainLoopConfig(st), st); err != nil {
			t.Fatal(err)
		}
		train := sys.W.Train
		for i, q := range train[:4] {
			feed(sys, q, i == 3)
		}
		if s := sys.OnlineStats(); s.Swaps != 1 || s.RetrainErrors != 0 {
			t.Fatalf("first retrain did not swap: %+v", s)
		}
		for _, q := range train[4:6] {
			feed(sys, q, false)
		}
		if _, err := sys.Online().Checkpoint(); err != nil {
			t.Fatal(err)
		}
		feed(sys, train[6], false) // lives in the WAL only
		return sys, st
	}
	toSecondRetrain := func(sys *System) []byte {
		t.Helper()
		for i, q := range sys.W.Train[7:11] {
			feed(sys, q, i == 3)
		}
		if s := sys.OnlineStats(); s.Epoch != 3 || s.RetrainErrors != 0 {
			t.Fatalf("second retrain did not swap to epoch 3: %+v", s)
		}
		blob, err := sys.Online().Active().Save()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	live, st := toCrash(t.TempDir())
	defer st.Close()
	want := toSecondRetrain(live)

	dir := t.TempDir()
	_, st1 := toCrash(dir)
	if err := st1.Close(); err != nil { // the crash: the loop is never closed
		t.Fatal(err)
	}
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	restarted := smallSystem(t, recoveryConfig)
	info, err := restarted.RecoverOnline(retrainLoopConfig(st2), st2)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Recovered || info.Epoch != 2 || info.WALReplayed != 1 {
		t.Fatalf("recovery %+v, want epoch 2 and one replayed record", info)
	}
	got := toSecondRetrain(restarted)
	if !bytes.Equal(got, want) {
		t.Fatal("the restarted loop's second retrain produced different weights from the live loop's")
	}
}
