// Package backend defines the optimizer-backend boundary of FOSS. The paper
// positions the doctor as a layer on top of an existing cost-based optimizer
// and validates it against two engines (PostgreSQL and openGauss); Backend is
// that boundary: a backend supplies the schema and statistics, enumerates its
// native expert plan, completes hint-steered replans (the pg_hint_plan
// contract), and executes plans for observed latency. Everything above —
// the AAM, the PPO learner, the runtime, and the online service — is
// backend-generic.
//
// One engine type ships: the Selinger-style optimizer and the executor, each
// run over a row of the engines table — the cost constants the optimizer
// believes and the ones the executor charges. "selinger" (the default) runs
// the standard constants; "gaussim" runs hash-centric ones mirroring the
// paper's openGauss port, so its expert plans prefer scan-hash-merge
// pipelines and its regret sits in different queries.
package backend

import (
	"fmt"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/engine/cost"
	"github.com/foss-db/foss/internal/engine/exec"
	"github.com/foss-db/foss/internal/engine/stats"
	"github.com/foss-db/foss/internal/engine/storage"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/optimizer"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/query"
)

// Backend is one optimizer+executor substrate the doctor can steer.
// Implementations must be safe for concurrent use: Plan, HintedPlan, and
// Execute are all on the serving path.
type Backend interface {
	// Name identifies the backend ("selinger", "gaussim", ...). Snapshots are
	// sealed with it and the serving loop's plan memory keys on it, so
	// neither a model nor a plan pin crosses backends.
	Name() string

	// Schema exposes the backend's catalog (sizes the plan encoder).
	Schema() *catalog.Schema

	// Stats exposes the backend's statistics catalog (the believed
	// cardinalities the doctor's baselines and workload generators consult).
	Stats() *stats.Catalog

	// Plan enumerates the backend's native cost-based plan for the query —
	// the expert baseline the doctor edits. Errors wrap fosserr.ErrNoPlan
	// when no plan exists.
	Plan(q *query.Query) (*plan.CP, error)

	// HintedPlan completes a full plan honoring the ICP exactly (join order
	// and join methods verbatim; access paths chosen by the backend) — the
	// hint-steered replanning every plan edit goes through.
	HintedPlan(q *query.Query, icp plan.ICP) (*plan.CP, error)

	// Execute runs a plan to completion or timeout (timeoutMs <= 0 = none)
	// and reports the observed latency.
	Execute(cp *plan.CP, timeoutMs float64) exec.Result
}

// engines is the registry, the default first: each row names the cost
// constants its optimizer believes and its executor charges.
var engines = []struct {
	name            string
	believed, truth cost.Params
}{
	{"selinger", cost.OptimizerParams(), cost.TruthParams()},
	{"gaussim", cost.GaussOptimizerParams(), cost.GaussTruthParams()},
}

// New constructs a registered backend by name ("" is the default) over a
// database + statistics catalog. Unknown names wrap
// fosserr.ErrUnknownBackend.
func New(name string, db *storage.DB, st *stats.Catalog) (Backend, error) {
	for i, e := range engines {
		if e.name == name || (name == "" && i == 0) {
			return &engine{name: e.name, opt: optimizer.New(db, st, e.believed), ex: exec.New(db, e.truth)}, nil
		}
	}
	return nil, fmt.Errorf("backend: %q: %w", name, fosserr.ErrUnknownBackend)
}

// Names lists the registered backends, the default first.
func Names() []string {
	out := make([]string, len(engines))
	for i, e := range engines {
		out[i] = e.name
	}
	return out
}

// engine is every registered backend: the optimizer and executor over one
// database, each with its row's constants, delegated to without translation.
type engine struct {
	name string
	opt  *optimizer.Optimizer
	ex   *exec.Executor
}

func (e *engine) Name() string            { return e.name }
func (e *engine) Schema() *catalog.Schema { return e.opt.DB.Schema }
func (e *engine) Stats() *stats.Catalog   { return e.opt.Stats }

func (e *engine) Plan(q *query.Query) (*plan.CP, error) { return e.opt.Plan(q) }

func (e *engine) HintedPlan(q *query.Query, icp plan.ICP) (*plan.CP, error) {
	return e.opt.HintedPlan(q, icp)
}

func (e *engine) Execute(cp *plan.CP, timeoutMs float64) exec.Result {
	return e.ex.Execute(cp, timeoutMs)
}
