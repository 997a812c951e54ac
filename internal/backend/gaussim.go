package backend

import (
	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/engine/cost"
	"github.com/foss-db/foss/internal/engine/exec"
	"github.com/foss-db/foss/internal/engine/stats"
	"github.com/foss-db/foss/internal/engine/storage"
	"github.com/foss-db/foss/internal/optimizer"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/query"
)

// Gaussim is the second backend, mirroring the paper's openGauss port: the
// same stored data and statistics, but a hash-centric cost model with
// different believed constants (cost.GaussOptimizerParams) and a different
// latency surface (cost.GaussTruthParams). Its expert plans prefer
// scan-hash-merge pipelines where Selinger reaches for index nested loops,
// and its regret — the gap the doctor learns to repair — sits in different
// queries, which is exactly what makes it a meaningful second target for the
// backend-generic doctor.
type Gaussim struct {
	db  *storage.DB
	st  *stats.Catalog
	opt *optimizer.Optimizer
	ex  *exec.Executor
}

// NewGaussim builds the gaussim backend over a database + statistics pair.
func NewGaussim(db *storage.DB, st *stats.Catalog) *Gaussim {
	return &Gaussim{
		db:  db,
		st:  st,
		opt: optimizer.NewWithParams(db, st, cost.GaussOptimizerParams()),
		ex:  exec.NewWithParams(db, cost.GaussTruthParams()),
	}
}

// Name implements Backend.
func (g *Gaussim) Name() string { return "gaussim" }

// Schema implements Backend.
func (g *Gaussim) Schema() *catalog.Schema { return g.db.Schema }

// Stats implements Backend.
func (g *Gaussim) Stats() *stats.Catalog { return g.st }

// Plan implements Backend: the same enumeration machinery as Selinger, but
// costed with gaussim's hash-centric beliefs — so the chosen orders, methods
// and access paths differ.
func (g *Gaussim) Plan(q *query.Query) (*plan.CP, error) { return g.opt.Plan(q) }

// HintedPlan implements Backend: hint completion under gaussim's beliefs
// (the same ICP can complete to different access paths than on Selinger).
func (g *Gaussim) HintedPlan(q *query.Query, icp plan.ICP) (*plan.CP, error) {
	return g.opt.HintedPlan(q, icp)
}

// Execute implements Backend, charging gaussim's truth constants.
func (g *Gaussim) Execute(cp *plan.CP, timeoutMs float64) exec.Result {
	return g.ex.Execute(cp, timeoutMs)
}
