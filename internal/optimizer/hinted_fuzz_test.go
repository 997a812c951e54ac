package optimizer

import (
	"errors"
	"slices"
	"testing"

	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/workload"
)

// FuzzHintedPlan feeds HintedPlan arbitrary plan identities against the
// queries of a small JOB workload: order byte b names the query's alias
// b mod (n+1), where n names an alias the query does not have, and method
// byte b is join method int8(b). Nothing may panic; a refusal wraps
// fosserr.ErrNoPlan; every identity accepted is a permutation of the
// query's aliases with n−1 join methods, and its plan extracts back to it.
//
//	go test ./internal/optimizer -run '^$' -fuzz FuzzHintedPlan -fuzztime 10s
func FuzzHintedPlan(f *testing.F) {
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.08})
	if err != nil {
		f.Fatal(err)
	}
	qs := w.All()
	o := New(w.DB, w.Stats)
	f.Add(uint16(0), []byte{0, 1, 2}, []byte{0, 1})
	f.Add(uint16(3), []byte{2, 1, 0, 3}, []byte{2, 2, 0})
	f.Add(uint16(5), []byte{0, 0, 0, 0}, []byte{0, 0, 0})
	f.Add(uint16(7), []byte{1, 0, 9}, []byte{1, 3})
	f.Add(uint16(9), []byte{0}, []byte{})
	f.Add(uint16(11), []byte{1, 0, 2, 3, 4}, []byte{0, 0xff, 1, 2})
	f.Fuzz(func(t *testing.T, qi uint16, order, methods []byte) {
		q := qs[int(qi)%len(qs)]
		aliases := q.Aliases()
		n := len(aliases)
		var icp plan.ICP
		for _, b := range order {
			a := "?"
			if i := int(b) % (n + 1); i < n {
				a = aliases[i]
			}
			icp.Order = append(icp.Order, a)
		}
		for _, b := range methods {
			icp.Methods = append(icp.Methods, plan.JoinMethod(int8(b)))
		}
		cp, err := o.HintedPlan(q, icp)
		if err != nil {
			if !errors.Is(err, fosserr.ErrNoPlan) {
				t.Fatalf("%s %v: refusal %v does not wrap ErrNoPlan", q.ID, icp, err)
			}
			return
		}
		sorted := slices.Sorted(slices.Values(icp.Order))
		if !slices.Equal(sorted, slices.Sorted(slices.Values(aliases))) || len(icp.Methods) != n-1 {
			t.Fatalf("%s: accepted %v, not a permutation of %v with %d methods", q.ID, icp, aliases, n-1)
		}
		for _, m := range icp.Methods {
			if m < plan.HashJoin || m >= plan.NumJoinMethods {
				t.Fatalf("%s: accepted %v with join method %d", q.ID, icp, m)
			}
		}
		got, err := plan.Extract(cp)
		if err != nil || !slices.Equal(got.Order, icp.Order) || !slices.Equal(got.Methods, icp.Methods) {
			t.Fatalf("%s: accepted %v, its plan extracts to %v (%v)", q.ID, icp, got, err)
		}
	})
}
