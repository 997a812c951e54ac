package service

import "sync"

// DetectorConfig tunes the drift detector.
type DetectorConfig struct {
	// Window is the rolling window length in recorded executions.
	Window int
	// Threshold is the mean regression ratio (observed latency / expert
	// latency) above which the window signals drift. 1.0 means FOSS matches
	// the traditional optimizer; sustained means above Threshold say the
	// serving model is prescribing worse plans than doing nothing.
	Threshold float64
	// MinSamples gates drift until the window has seen this many records.
	MinSamples int
	// NoveltyFrac signals drift when this fraction of the window's queries
	// carry fingerprints never recorded before (template-mix or
	// novel-template shifts arrive as unseen shapes well before they show up
	// as latency regressions). <= 0 disables the novelty signal.
	NoveltyFrac float64
}

// Signal is one detector observation outcome.
type Signal struct {
	Mean      float64 // rolling mean regression ratio
	NovelFrac float64 // fraction of the window with unseen fingerprints
	Drift     bool
	Reason    string // "regression" or "novelty" when Drift is set
}

// Detector is the rolling regression-vs-expert drift monitor. It keeps a
// fixed window of (ratio, novel) observations plus an all-time fingerprint
// set; Observe is amortized O(1) and safe for concurrent use. The window sum
// runs incrementally and is re-summed from the ring once per lap, so neither
// rounding nor an outlier that swamped the running sum outlives the window
// by more than one lap.
type Detector struct {
	cfg DetectorConfig

	mu     sync.Mutex
	ratios []float64
	novels []bool
	idx, n int
	sum    float64
	novel  int
	seen   map[uint64]bool
}

// NewDetector creates a detector; known pre-seeds the fingerprint set (the
// training distribution is not novel).
func NewDetector(cfg DetectorConfig, known []uint64) *Detector {
	if cfg.Window < 1 {
		cfg.Window = 32
	}
	if cfg.MinSamples < 1 {
		cfg.MinSamples = cfg.Window / 2
	}
	if cfg.MinSamples > cfg.Window {
		cfg.MinSamples = cfg.Window
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 1.15
	}
	d := &Detector{
		cfg:    cfg,
		ratios: make([]float64, cfg.Window),
		novels: make([]bool, cfg.Window),
		seen:   make(map[uint64]bool, len(known)),
	}
	for _, fp := range known {
		d.seen[fp] = true
	}
	return d
}

// Observe records one executed query: its fingerprint and the regression
// ratio observed/expert. It returns the window state and whether the window
// now signals drift.
func (d *Detector) Observe(fingerprint uint64, ratio float64) Signal {
	d.mu.Lock()
	defer d.mu.Unlock()

	isNovel := !d.seen[fingerprint]
	d.seen[fingerprint] = true

	if d.n == d.cfg.Window {
		// evict the slot we are about to overwrite
		d.sum -= d.ratios[d.idx]
		if d.novels[d.idx] {
			d.novel--
		}
	} else {
		d.n++
	}
	d.ratios[d.idx] = ratio
	d.novels[d.idx] = isNovel
	d.sum += ratio
	if isNovel {
		d.novel++
	}
	d.idx = (d.idx + 1) % d.cfg.Window
	if d.idx == 0 {
		d.sum = 0
		for _, r := range d.ratios {
			d.sum += r
		}
	}

	sig := Signal{
		Mean:      d.sum / float64(d.n),
		NovelFrac: float64(d.novel) / float64(d.n),
	}
	if d.n >= d.cfg.MinSamples {
		switch {
		case sig.Mean > d.cfg.Threshold:
			sig.Drift, sig.Reason = true, "regression"
		case d.cfg.NoveltyFrac > 0 && sig.NovelFrac >= d.cfg.NoveltyFrac:
			sig.Drift, sig.Reason = true, "novelty"
		}
	}
	return sig
}

// Reset clears the rolling window (the fingerprint set is kept: a query seen
// before a retrain is still not novel after it). Called after every
// hot-swap so the fresh model starts with a clean slate.
func (d *Detector) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.idx, d.n, d.sum, d.novel = 0, 0, 0, 0
	for i := range d.ratios {
		d.ratios[i] = 0
		d.novels[i] = false
	}
}

// WindowState snapshots the current rolling means without observing.
func (d *Detector) WindowState() Signal {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.n == 0 {
		return Signal{}
	}
	return Signal{
		Mean:      d.sum / float64(d.n),
		NovelFrac: float64(d.novel) / float64(d.n),
	}
}
