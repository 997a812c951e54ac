// Package backend defines the optimizer-backend boundary of FOSS. The paper
// positions the doctor as a layer on top of an existing cost-based optimizer
// and validates it against two engines (PostgreSQL and openGauss); Backend is
// that boundary: a backend supplies the schema and statistics, enumerates its
// native expert plan, completes hint-steered replans (the pg_hint_plan
// contract), and executes plans for observed latency. Everything above —
// the AAM, the PPO learner, the runtime, and the online service — is
// backend-generic.
//
// Two implementations ship: Selinger (the original synthetic engine,
// bit-identical to the pre-interface behavior) and Gaussim (a hash-centric
// engine with a deliberately different cost model and operator preferences,
// mirroring the paper's openGauss port).
package backend

import (
	"fmt"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/engine/exec"
	"github.com/foss-db/foss/internal/engine/stats"
	"github.com/foss-db/foss/internal/engine/storage"
	"github.com/foss-db/foss/internal/fosserr"
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

// New constructs a registered backend by name over a database + statistics
// catalog. Unknown names wrap fosserr.ErrUnknownBackend.
func New(name string, db *storage.DB, st *stats.Catalog) (Backend, error) {
	switch name {
	case "selinger", "":
		return NewSelinger(db, st), nil
	case "gaussim":
		return NewGaussim(db, st), nil
	}
	return nil, fmt.Errorf("backend: %q: %w", name, fosserr.ErrUnknownBackend)
}

// Names lists the registered backends.
func Names() []string { return []string{"selinger", "gaussim"} }
