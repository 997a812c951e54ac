package service

// Regression suite for the shutdown path: before Loop.Close existed, a
// background retrain (service.go's triggerRetrain goroutine) and the
// periodic-checkpoint goroutine could outlive the caller — fossd's HTTP
// shutdown stopped the listener but never drained the loop, so an in-flight
// retrain raced process exit and wrote nothing. These tests pin the
// contract: Close stops intake, drains (or cancels) the background work,
// leaves no goroutine behind, and lands a durable final checkpoint.

import (
	"context"
	"errors"
	goruntime "runtime"
	"testing"
	"time"

	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/store"
)

// waitGoroutines polls until the live goroutine count drops back to at most
// base (plus the runtime's own background noise), failing after a deadline.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		goruntime.GC() // nudge finalizer/timer goroutines to settle
		n := goruntime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked across Close: %d > %d\n%s",
				n, base, buf[:goruntime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// driveRetrain records enough regressed executions to trip the detector and
// start a background retrain.
func driveRetrain(t *testing.T, lp *Loop) {
	t.Helper()
	for i := int64(0); i < 4; i++ {
		res, err := lp.Serve(context.Background(), fq(i))
		if err != nil {
			t.Fatal(err)
		}
		lp.Record(fq(i), res.Eval, 100) // expert runs at 10 → ratio 10, drift
	}
}

// TestCloseDrainsBackgroundRetrain: a Close issued while the background
// retrain sleeps inside TrainOn waits it out, completes the hot-swap, takes
// a durable final checkpoint, refuses post-close traffic, and leaves no
// goroutine behind. Close is idempotent.
func TestCloseDrainsBackgroundRetrain(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	base := goruntime.NumGoroutine()

	cfg := syncConfig()
	cfg.Background = true
	cfg.Store = st
	blue := newFake("blue")
	blue.trainDelay = 100 * time.Millisecond // inherited by the fork
	lp := New(cfg, blue, nil)

	driveRetrain(t, lp)
	if !lp.Stats().Retraining {
		t.Fatal("background retrain did not start; the drain would prove nothing")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := lp.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}

	// The retrain drained to completion: forked, trained, swapped.
	if st := lp.Stats(); st.Swaps != 1 || st.RetrainErrors != 0 || !st.Closed {
		t.Fatalf("drain left the retrain incomplete: %+v", st)
	}
	forks := blue.forked()
	if len(forks) != 1 || forks[0].trains.Load() != 1 || lp.Active() != Replica(forks[0]) {
		t.Fatalf("want one fork, trained once and published; forks=%d", len(forks))
	}

	// Intake is stopped.
	if _, err := lp.Serve(context.Background(), fq(99)); !errors.Is(err, fosserr.ErrLoopClosed) {
		t.Fatalf("post-close Serve error = %v, want ErrLoopClosed", err)
	}
	if _, err := lp.ServeBatch(context.Background(), []*query.Query{fq(99)}); !errors.Is(err, fosserr.ErrLoopClosed) {
		t.Fatalf("post-close ServeBatch error = %v, want ErrLoopClosed", err)
	}
	sizeBefore := lp.Active().Buffer().Size()
	pe, _, _, _ := blue.OptimizeEvalContext(context.Background(), fq(5))
	if lp.Record(fq(5), pe, 10) {
		t.Fatal("post-close Record claimed the feedback was ingested")
	}
	if lp.Active().Buffer().Size() != sizeBefore {
		t.Fatal("post-close Record still ingested feedback")
	}

	// The final checkpoint is durable and images the post-swap generation.
	rec, err := st.Recover()
	if err != nil || rec == nil {
		t.Fatalf("no durable final checkpoint after Close: rec=%v err=%v", rec, err)
	}
	if rec.Checkpoint.Epoch != 2 {
		t.Fatalf("final checkpoint epoch %d, want the post-swap 2", rec.Checkpoint.Epoch)
	}

	// Idempotent.
	if err := lp.Close(ctx); err != nil {
		t.Fatalf("second close: %v", err)
	}
	waitGoroutines(t, base)
}

// TestCloseCancelsStuckRetrain: when the drain budget expires before the
// retrain finishes, Close cancels the retrain's context instead of hanging,
// still takes the final checkpoint, and still leaves no goroutine behind.
func TestCloseCancelsStuckRetrain(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	base := goruntime.NumGoroutine()

	cfg := syncConfig()
	cfg.Background = true
	cfg.Store = st
	blue := newFake("blue")
	blue.trainDelay = time.Hour // the fork's retrain would outlive any deploy
	lp := New(cfg, blue, nil)

	driveRetrain(t, lp)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := lp.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("close took %v against a stuck retrain; the cancel path did not fire", elapsed)
	}
	if st := lp.Stats(); st.RetrainErrors != 1 || st.Swaps != 0 {
		t.Fatalf("canceled retrain should count one error and no swap: %+v", st)
	}
	if rec, err := st.Recover(); err != nil || rec == nil {
		t.Fatalf("no final checkpoint after canceled drain: rec=%v err=%v", rec, err)
	}
	waitGoroutines(t, base)
}

// TestCloseRaceWithTraffic: Close racing live Serve/Record traffic under
// -race neither panics nor leaks; every request either completes or fails
// with ErrLoopClosed.
func TestCloseRaceWithTraffic(t *testing.T) {
	base := goruntime.NumGoroutine()
	cfg := syncConfig()
	cfg.Background = true
	blue := newFake("blue")
	lp := New(cfg, blue, nil)

	stop := make(chan struct{})
	donech := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { donech <- struct{}{} }()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := lp.Serve(context.Background(), fq(int64(g)*1000+i))
				if err != nil {
					if !errors.Is(err, fosserr.ErrLoopClosed) {
						t.Errorf("serve: %v", err)
					}
					return
				}
				lp.Record(fq(int64(g)*1000+i), res.Eval, 100)
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := lp.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	close(stop)
	for g := 0; g < 4; g++ {
		<-donech
	}
	waitGoroutines(t, base)
}
