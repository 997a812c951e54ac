package shard

// The fleet-boot suite: a fleet's specs are checked before anything boots,
// then its tenants boot side by side. Concurrency must change no bit of any
// tenant, and the first failure must stop the rest and leave nothing held.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/store"
)

// atLeastProcs raises GOMAXPROCS to n for the test, so the boot fan-out runs
// n tenants side by side even on a one-core machine.
func atLeastProcs(t *testing.T, n int) {
	t.Helper()
	if prev := goruntime.GOMAXPROCS(0); prev < n {
		goruntime.GOMAXPROCS(n)
		t.Cleanup(func() { goruntime.GOMAXPROCS(prev) })
	}
}

// TestConcurrentBootMatchesSequential: a mixed-backend fleet whose first two
// tenants share one explicit workload key boots concurrently, and every
// tenant lands where it lands booted alone — same epoch, same buffer, the
// same plan for every training query. The shared key is generated once.
func TestConcurrentBootMatchesSequential(t *testing.T) {
	specs := []TenantSpec{
		{Name: "acme", Backend: "selinger", Seed: 7},
		{Name: "globex", Backend: "gaussim", Seed: 7},
		{Name: "initech", Workload: "stack", Backend: "gaussim"},
	}
	cfg := tinyRouterConfig("")
	var mu sync.Mutex
	booted := map[string]string{}
	cfg.OnEvent = func(tenant, event string) {
		if strings.HasPrefix(event, "cold start: trained") {
			mu.Lock()
			booted[tenant] = event
			mu.Unlock()
		}
	}
	atLeastProcs(t, len(specs))
	fleet, err := NewRouter(context.Background(), cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close(context.Background())

	acme, _ := fleet.Get("acme")
	globex, _ := fleet.Get("globex")
	if acme.W != globex.W {
		t.Fatal("two tenants with one workload key generated it twice")
	}
	inSecs := regexp.MustCompile(` in (\S+)$`)
	for _, spec := range specs {
		m := inSecs.FindStringSubmatch(booted[spec.Name])
		if m == nil {
			t.Fatalf("tenant %s: boot event %q carries no elapsed time", spec.Name, booted[spec.Name])
		}
		if _, err := time.ParseDuration(m[1]); err != nil {
			t.Fatalf("tenant %s: boot event elapsed %q: %v", spec.Name, m[1], err)
		}
	}

	cfg.OnEvent = nil
	for _, spec := range specs {
		alone, err := NewRouter(context.Background(), cfg, []TenantSpec{spec})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := alone.Get(spec.Name)
		got, _ := fleet.Get(spec.Name)
		if g, w := got.Sys.OnlineStats().Epoch, want.Sys.OnlineStats().Epoch; g != w {
			t.Fatalf("tenant %s: epoch %d in the fleet, %d alone", spec.Name, g, w)
		}
		if g, w := got.Sys.Buffer().Size(), want.Sys.Buffer().Size(); g != w {
			t.Fatalf("tenant %s: buffer %d in the fleet, %d alone", spec.Name, g, w)
		}
		for i, q := range want.W.Train {
			wres, err := want.Serve(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			gres, err := got.Serve(context.Background(), got.W.Train[i])
			if err != nil {
				t.Fatal(err)
			}
			if g, w := gres.Eval.ICP.Key(), wres.Eval.ICP.Key(); g != w {
				t.Fatalf("tenant %s query %s: fleet serves %s, alone %s", spec.Name, q.ID, g, w)
			}
		}
		if err := alone.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBootFailureStopsTheFleet: one tenant's state dir is held, so its boot
// fails with ErrStoreLocked at once. NewRouter names that tenant alone,
// returns without any sibling finishing its training, leaves no goroutine
// behind, and releases every other tenant's lock.
func TestBootFailureStopsTheFleet(t *testing.T) {
	base := goruntime.NumGoroutine()
	dir := t.TempDir()
	cfg := tinyRouterConfig(dir)
	cfg.System.Learner.Iterations = 4 // enough training for a cancel to cut short
	var mu sync.Mutex
	var trained []string
	cfg.OnEvent = func(tenant, event string) {
		if strings.HasPrefix(event, "cold start: trained") {
			mu.Lock()
			trained = append(trained, tenant)
			mu.Unlock()
		}
	}
	held, err := store.Open(filepath.Join(dir, "globex"))
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	specs := []TenantSpec{{Name: "acme"}, {Name: "globex", Backend: "gaussim"}, {Name: "initech", Workload: "stack"}}
	atLeastProcs(t, len(specs))
	_, err = NewRouter(context.Background(), cfg, specs)
	if !errors.Is(err, fosserr.ErrStoreLocked) {
		t.Fatalf("boot error = %v, want ErrStoreLocked", err)
	}
	if msg := err.Error(); !strings.Contains(msg, `"globex"`) || strings.Contains(msg, "acme") || strings.Contains(msg, "initech") {
		t.Fatalf("boot error %q should name globex and only globex", msg)
	}
	if len(trained) != 0 {
		t.Fatalf("tenants %v finished training after a sibling's boot failed", trained)
	}

	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked by a failed boot: %d > %d\n%s",
				goruntime.NumGoroutine(), base, buf[:goruntime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, name := range []string{"acme", "initech"} {
		st, err := store.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("tenant %s's state dir still held after the failed boot: %v", name, err)
		}
		st.Close()
	}
}

// TestBadSpecRefusedBeforeBoot: a typo in the third spec refuses the fleet
// before the first two train, and no state directory is created.
func TestBadSpecRefusedBeforeBoot(t *testing.T) {
	dir := t.TempDir()
	_, err := NewRouter(context.Background(), tinyRouterConfig(dir), []TenantSpec{
		{Name: "acme"}, {Name: "globex", Backend: "gaussim"}, {Name: "initech", Backend: "oracle"},
	})
	if !errors.Is(err, fosserr.ErrBadConfig) {
		t.Fatalf("error = %v, want ErrBadConfig", err)
	}
	if msg := err.Error(); !strings.Contains(msg, `"initech"`) || strings.Contains(msg, "acme") || strings.Contains(msg, "globex") {
		t.Fatalf("refusal %q should name initech and only initech", msg)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("refused fleet touched its state dir: %v %v", ents, err)
	}
}

// TestPreflight: every kind of unbootable spec is refused with ErrBadConfig,
// and the refusal lists every bad spec in spec order.
func TestPreflight(t *testing.T) {
	leader := tinyRouterConfig("")
	follower := followerConfig("")
	cases := []struct {
		name  string
		cfg   Config
		specs []TenantSpec
		want  []string // substrings in this order; nil = accepted
	}{
		{name: "good fleet", cfg: leader, specs: []TenantSpec{{Name: "acme"}, {Name: "globex", Workload: "tpcds", Backend: "gaussim"}}},
		{name: "bad name", cfg: leader, specs: []TenantSpec{{Name: "../evil"}}, want: []string{`"../evil"`}},
		{name: "name used twice", cfg: leader, specs: []TenantSpec{{Name: "acme"}, {Name: "acme", Backend: "gaussim"}}, want: []string{`"acme" named twice`}},
		{name: "unknown workload", cfg: leader, specs: []TenantSpec{{Name: "acme", Workload: "tpch"}}, want: []string{`workload "tpch"`}},
		{name: "unknown backend", cfg: leader, specs: []TenantSpec{{Name: "acme", Backend: "oracle"}}, want: []string{`backend "oracle"`}},
		{name: "follower without a leader", cfg: follower, specs: []TenantSpec{{Name: "acme"}}, want: []string{`follower "acme" needs a -leader-addr`}},
		{name: "follower with its own leader", cfg: follower, specs: []TenantSpec{{Name: "acme", Leader: "http://127.0.0.1:1"}}},
		{
			name: "every bad spec, in order", cfg: leader,
			specs: []TenantSpec{{Name: "a b"}, {Name: "acme"}, {Name: "globex", Backend: "oracle"}, {Name: "acme"}},
			want:  []string{`"a b"`, `backend "oracle"`, `"acme" named twice`},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Preflight(tc.cfg, tc.specs)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("refused a bootable fleet: %v", err)
				}
				return
			}
			if !errors.Is(err, fosserr.ErrBadConfig) {
				t.Fatalf("error = %v, want ErrBadConfig", err)
			}
			msg, at := err.Error(), 0
			for _, w := range tc.want {
				i := strings.Index(msg[at:], w)
				if i < 0 {
					t.Fatalf("refusal %q lacks %q (or out of order)", msg, w)
				}
				at += i + len(w)
			}
		})
	}
}
