package service

// httpmetrics.go — the Prometheus text projection of the loops' counters and
// per-tier serve-latency histograms, served as GET /metrics (every tenant)
// and GET /v1/t/{tenant}/metrics (one). Everything here is derived from
// state the serve path already maintains (atomic counters, fixed-bucket
// histograms); a scrape allocates, the record path does not.
//
// Each tenant contributes one scrapeRow, and every series carries its
// tenant label. The text format forbids repeating # TYPE blocks, so
// families iterate outside, tenants inside.

import (
	"net/http"

	"github.com/foss-db/foss/internal/metrics"
	"github.com/foss-db/foss/internal/repl"
	"github.com/foss-db/foss/internal/runtime"
)

// promContentType is the text exposition format version Prometheus expects.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// scrapeRow is one tenant's worth of a scrape.
type scrapeRow struct {
	tenant  string
	backend string
	stats   Stats
	cache   runtime.CacheStats
	hist    [2]metrics.HistSnapshot
	pending int
	expired uint64

	advisorOn  bool
	advEmitted uint64

	// replOn marks a row whose server runs a replication tailer (a
	// follower); the repl gauges are emitted only for such rows so a leader's
	// scrape carries no misleading zero-lag series.
	replOn bool
	repl   repl.Stats
}

// scrape assembles this server's row. The histograms snapshot BEFORE Stats
// so Σ histogram counts ≤ Served holds in every concurrent scrape (equal
// once traffic quiesces — the CI gate's assertion).
func (s *HTTPServer) scrape(tenant string) scrapeRow {
	hist := s.lp.ServeHistograms()
	st := s.lp.Stats()
	active := s.lp.Active()
	s.mu.Lock()
	pending := s.live
	s.mu.Unlock()
	emitted, _ := s.lp.AdvisorCounters()
	row := scrapeRow{
		tenant:     tenant,
		backend:    active.BackendName(),
		stats:      st,
		cache:      active.CacheStats(),
		hist:       hist,
		pending:    pending,
		expired:    s.expired.Load(),
		advisorOn:  s.lp.AdvisorEnabled(),
		advEmitted: emitted,
	}
	if s.opts.ReplStats != nil {
		row.replOn = true
		row.repl = s.opts.ReplStats()
	}
	return row
}

// handleMetrics scrapes one tenant, under the same tenant label the fleet
// page gives it.
func (s *HTTPServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeMetricsText(w, []scrapeRow{s.scrape(r.PathValue("tenant"))})
}

// writeMetricsText enumerates every (family, per-row emit) pair once, so the
// tenant and fleet scrapes cannot drift apart.
func writeMetricsText(w http.ResponseWriter, rows []scrapeRow) {
	var e metrics.Expo

	labels := func(row scrapeRow, extra ...metrics.Label) []metrics.Label {
		return append([]metrics.Label{{Key: "tenant", Value: row.tenant}}, extra...)
	}
	counter := func(name, help string, get func(scrapeRow) uint64) {
		e.Family(name, help, "counter")
		for _, row := range rows {
			e.Uint(name, labels(row), get(row))
		}
	}
	gauge := func(name, help string, get func(scrapeRow) float64) {
		e.Family(name, help, "gauge")
		for _, row := range rows {
			e.Sample(name, labels(row), get(row))
		}
	}

	// The serve-latency histogram leads: one family, one series per
	// (tenant, tier).
	e.Family("foss_serve_latency_seconds", "Serve latency by serving tier (optimization time, not execution).", "histogram")
	for _, row := range rows {
		e.Hist("foss_serve_latency_seconds", labels(row, metrics.Label{Key: "tier", Value: "0"}), row.hist[histPin])
		e.Hist("foss_serve_latency_seconds", labels(row, metrics.Label{Key: "tier", Value: "2"}), row.hist[histFull])
	}

	counter("foss_served_total", "Queries served.", func(r scrapeRow) uint64 { return r.stats.Served })
	counter("foss_serve_cache_hits_total", "Serves answered from a plan cache or pin.", func(r scrapeRow) uint64 { return r.stats.CacheHits })
	counter("foss_recorded_total", "Executed-plan feedback records ingested.", func(r scrapeRow) uint64 { return r.stats.Recorded })
	counter("foss_drift_triggers_total", "Drift detector firings that triggered a retrain.", func(r scrapeRow) uint64 { return r.stats.Drifts })
	counter("foss_retrains_total", "Background retrains started.", func(r scrapeRow) uint64 { return r.stats.Retrains })
	counter("foss_hot_swaps_total", "Replica hot-swaps completed.", func(r scrapeRow) uint64 { return r.stats.Swaps })
	counter("foss_retrain_errors_total", "Retrains that failed.", func(r scrapeRow) uint64 { return r.stats.RetrainErrors })
	counter("foss_expert_errors_total", "Expert-baseline failures (neutral drift ratio recorded).", func(r scrapeRow) uint64 { return r.stats.ExpertErrors })

	counter("foss_wal_entries_total", "Intact records in the journal, replayed plus live.", func(r scrapeRow) uint64 { return r.stats.WALEntries })
	counter("foss_wal_errors_total", "Journal append failures (feedback kept in memory only).", func(r scrapeRow) uint64 { return r.stats.WALErrors })
	counter("foss_checkpoints_total", "Checkpoints written.", func(r scrapeRow) uint64 { return r.stats.Checkpoints })
	counter("foss_checkpoint_errors_total", "Checkpoint write failures.", func(r scrapeRow) uint64 { return r.stats.CheckpointErrors })
	gauge("foss_wal_replayed", "WAL records replayed into this process at recovery.", func(r scrapeRow) float64 { return float64(r.stats.Replayed) })

	e.Family("foss_tier_serves_total", "Serves answered per tier (0=plan memory, 2=full AAM).", "counter")
	for _, row := range rows {
		e.Uint("foss_tier_serves_total", labels(row, metrics.Label{Key: "tier", Value: "0"}), row.stats.Tier0Hits)
		e.Uint("foss_tier_serves_total", labels(row, metrics.Label{Key: "tier", Value: "2"}), row.stats.Tier2Serves)
	}
	counter("foss_tier_promotions_total", "Plans pinned into tier-0 memory.", func(r scrapeRow) uint64 { return r.stats.Promotions })
	counter("foss_tier_demotions_total", "Tier-0 pins escalated back on regression.", func(r scrapeRow) uint64 { return r.stats.Demotions })
	gauge("foss_tier_pinned_plans", "Live tier-0 pins.", func(r scrapeRow) float64 { return float64(r.stats.PinnedPlans) })

	counter("foss_plan_cache_hits_total", "Replica plan-cache hits.", func(r scrapeRow) uint64 { return r.cache.Hits })
	counter("foss_plan_cache_misses_total", "Replica plan-cache misses.", func(r scrapeRow) uint64 { return r.cache.Misses })
	counter("foss_plan_cache_evictions_total", "Replica plan-cache evictions.", func(r scrapeRow) uint64 { return r.cache.Evictions })
	gauge("foss_plan_cache_size", "Replica plan-cache entries.", func(r scrapeRow) float64 { return float64(r.cache.Size) })

	gauge("foss_epoch", "Current model generation.", func(r scrapeRow) float64 { return float64(r.stats.Epoch) })
	gauge("foss_catalog_epoch", "Live catalog generation (applied DDL statements).", func(r scrapeRow) float64 { return float64(r.stats.CatalogEpoch) })
	counter("foss_ddl_applies_total", "Schema-evolution DDL batches applied.", func(r scrapeRow) uint64 { return r.stats.CatalogApplies })
	counter("foss_stale_invalidations_total", "Requests or feedback refused because a DDL outdated their schema.", func(r scrapeRow) uint64 { return r.stats.StaleInvalidations })
	gauge("foss_retraining", "1 while a background retrain runs.", func(r scrapeRow) float64 {
		if r.stats.Retraining {
			return 1
		}
		return 0
	})
	gauge("foss_pending_feedback", "Served plans awaiting feedback in the ring.", func(r scrapeRow) float64 { return float64(r.pending) })
	counter("foss_expired_serve_ids_total", "Serve ids evicted before their feedback arrived.", func(r scrapeRow) uint64 { return r.expired })

	gauge("foss_advisor_enabled", "1 when the advisor runs.", func(r scrapeRow) float64 {
		if r.advisorOn {
			return 1
		}
		return 0
	})
	counter("foss_advisor_findings_total", "Advisor findings emitted.", func(r scrapeRow) uint64 { return r.advEmitted })

	// Replication families: emitted only when some row runs a tailer (a
	// follower), so leader scrapes carry no misleading zero-lag series and
	// no sampleless family declarations.
	anyRepl := false
	for _, row := range rows {
		if row.replOn {
			anyRepl = true
		}
	}
	replGauge := func(name, help string, get func(repl.Stats) float64) {
		if !anyRepl {
			return
		}
		e.Family(name, help, "gauge")
		for _, row := range rows {
			if row.replOn {
				e.Sample(name, labels(row), get(row.repl))
			}
		}
	}
	replCounter := func(name, help string, get func(repl.Stats) uint64) {
		if !anyRepl {
			return
		}
		e.Family(name, help, "counter")
		for _, row := range rows {
			if row.replOn {
				e.Uint(name, labels(row), get(row.repl))
			}
		}
	}
	replGauge("foss_repl_last_applied_walseq", "WAL horizon of the last checkpoint this follower applied.",
		func(s repl.Stats) float64 { return float64(s.LastAppliedWALSeq) })
	replGauge("foss_repl_last_applied_epoch", "Model generation of the last checkpoint this follower applied.",
		func(s repl.Stats) float64 { return float64(s.LastAppliedEpoch) })
	replGauge("foss_repl_lag_checkpoints", "Epochs the leader has published past what this follower applied.",
		func(s repl.Stats) float64 { return float64(s.LagCheckpoints) })
	replCounter("foss_repl_swaps_applied_total", "Leader checkpoints hot-swapped into this follower.",
		func(s repl.Stats) uint64 { return s.AppliedSwaps })
	replCounter("foss_repl_fetch_errors_total", "Replication polls that failed (manifest, fetch, decode, or apply).",
		func(s repl.Stats) uint64 { return s.FetchErrors })

	w.Header().Set("Content-Type", promContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = e.WriteTo(w)
}
