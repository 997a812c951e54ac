package backend

import (
	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/engine/exec"
	"github.com/foss-db/foss/internal/engine/stats"
	"github.com/foss-db/foss/internal/engine/storage"
	"github.com/foss-db/foss/internal/optimizer"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/query"
)

// Selinger is the original synthetic engine behind the Backend interface:
// the Selinger-style dynamic-programming optimizer with the standard believed
// cost constants and the executor charging the standard truth constants. It
// delegates without any translation, so a doctor over this backend behaves
// bit-for-bit like the pre-interface system.
type Selinger struct {
	db  *storage.DB
	st  *stats.Catalog
	opt *optimizer.Optimizer
	ex  *exec.Executor
}

// NewSelinger builds the default backend over a database + statistics pair.
func NewSelinger(db *storage.DB, st *stats.Catalog) *Selinger {
	return &Selinger{db: db, st: st, opt: optimizer.New(db, st), ex: exec.New(db)}
}

// Name implements Backend.
func (s *Selinger) Name() string { return "selinger" }

// Schema implements Backend.
func (s *Selinger) Schema() *catalog.Schema { return s.db.Schema }

// Stats implements Backend.
func (s *Selinger) Stats() *stats.Catalog { return s.st }

// Plan implements Backend: the Selinger DP over left-deep join trees.
func (s *Selinger) Plan(q *query.Query) (*plan.CP, error) { return s.opt.Plan(q) }

// HintedPlan implements Backend: the pg_hint_plan contract.
func (s *Selinger) HintedPlan(q *query.Query, icp plan.ICP) (*plan.CP, error) {
	return s.opt.HintedPlan(q, icp)
}

// Execute implements Backend.
func (s *Selinger) Execute(cp *plan.CP, timeoutMs float64) exec.Result {
	return s.ex.Execute(cp, timeoutMs)
}

// PlanCoarse plans under Bao-style coarse hints (operator classes disabled
// for the whole query). Coarse hinting is a capability of this concrete
// backend, not part of the Backend contract — the doctor's fine-grained
// edits don't need it, only the baselines and comparisons do.
func (s *Selinger) PlanCoarse(q *query.Query, cfg optimizer.Config) (*plan.CP, error) {
	return s.opt.PlanWithConfig(q, cfg)
}

// Optimizer exposes the underlying cost-based optimizer for harnesses that
// need Selinger-specific machinery (baselines, experiments).
func (s *Selinger) Optimizer() *optimizer.Optimizer { return s.opt }
