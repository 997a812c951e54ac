package service

// The torn-read regression suite for Stats/scrape snapshots: a scraper
// running concurrently with serve/record traffic must never observe an
// internally inconsistent snapshot. The counters are independent atomics, so
// consistency is an ordering discipline — writers bump the superordinate
// counter first (served before cache/tier hits, promotions before demotions,
// WAL entries before recorded) and observe the histogram last; readers load
// in the opposite order. Run with -race: this test is also the data-race
// soak for the scrape path.

import (
	"context"
	"sync"
	"testing"

	"github.com/foss-db/foss/internal/store"
	"github.com/foss-db/foss/internal/tier"
)

// TestStatsConsistentUnderTraffic hammers a tiered, journaled loop from
// writer goroutines while a scraper asserts every cross-counter invariant on
// every snapshot, then checks exact equality once traffic quiesces.
func TestStatsConsistentUnderTraffic(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := syncConfig()
	cfg.Detector.Threshold = 1e12 // never drift: no retrain noise
	cfg.Store = st
	cfg.Tier = tier.Config{Memory: true, PromoteAfter: 1, EscalateRatio: 1.5}
	blue := newFake("blue")
	lp := New(cfg, blue, nil)

	const writers, turns = 4, 50
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < turns; i++ {
				// A handful of shared fingerprints so pins promote, repeat
				// serves hit tier 0, and regressions demote — every tier
				// counter moves.
				q := fq(int64(g*4 + i%4))
				res, err := lp.Serve(context.Background(), q)
				if err != nil {
					t.Error(err)
					return
				}
				lat := 5.0 // beats the expert's 10 → promotion pressure
				if i%5 == 4 {
					lat = 100 // regression → demotion pressure
				}
				lp.Record(q, res.Eval, lat)
			}
		}(g)
	}
	go func() { wg.Wait(); close(done) }()

	check := func(when string) {
		// Snapshot order mirrors the scrape path: histograms BEFORE stats.
		hist := lp.ServeHistograms()
		s := lp.Stats()
		if s.CacheHits > s.Served {
			t.Errorf("%s: CacheHits %d > Served %d", when, s.CacheHits, s.Served)
		}
		if sum := s.Tier0Hits + s.Tier2Serves; sum > s.Served {
			t.Errorf("%s: tier hits %d > Served %d", when, sum, s.Served)
		}
		if s.Demotions > s.Promotions {
			t.Errorf("%s: Demotions %d > Promotions %d", when, s.Demotions, s.Promotions)
		}
		if s.WALErrors == 0 && s.Recorded > s.WALEntries {
			t.Errorf("%s: Recorded %d > WALEntries %d", when, s.Recorded, s.WALEntries)
		}
		var hsum uint64
		for _, h := range hist {
			hsum += h.Count()
		}
		if hsum > s.Served {
			t.Errorf("%s: Σ histogram counts %d > Served %d", when, hsum, s.Served)
		}
	}

	scrapes := 0
	for {
		select {
		case <-done:
			wg.Wait()
			if scrapes == 0 {
				t.Fatal("scraper never overlapped traffic; the soak proved nothing")
			}
			// Quiescent: the inequalities collapse to equalities.
			hist := lp.ServeHistograms()
			s := lp.Stats()
			want := uint64(writers * turns)
			if s.Served != want || s.Recorded != want {
				t.Fatalf("served=%d recorded=%d, want %d each", s.Served, s.Recorded, want)
			}
			if sum := s.Tier0Hits + s.Tier2Serves; sum != want {
				t.Fatalf("tier hits %d != served %d at quiescence", sum, want)
			}
			// The journal holds exactly one entry per feedback record: tier
			// promotions/demotions are not journaled, and drift is disabled
			// here so there are no swaps.
			if s.WALEntries != want || s.WALErrors != 0 {
				t.Fatalf("wal entries=%d errors=%d, want %d/0", s.WALEntries, s.WALErrors, want)
			}
			var hsum uint64
			for _, h := range hist {
				hsum += h.Count()
			}
			if hsum != want {
				t.Fatalf("Σ histogram counts %d != served %d at quiescence", hsum, want)
			}
			if s.Promotions == 0 || s.Demotions == 0 {
				t.Fatalf("traffic moved no tier counters (promotions=%d demotions=%d); weak soak", s.Promotions, s.Demotions)
			}
			return
		default:
			check("concurrent")
			scrapes++
		}
	}
}
