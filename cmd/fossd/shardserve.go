package main

// The -serve-http mode: boot a sharded doctor fleet behind one HTTP
// listener. Every tenant gets a full doctor — its own backend, workload,
// plan cache, serve-id ring, and <state-dir>/<tenant>/ durable state; with no
// tenants named the fleet is the single tenant "default". SIGTERM drains the
// whole fleet losslessly: HTTP stops taking requests, in-flight handlers
// finish, every shard awaits (or past -drain-timeout, cancels) its background
// retrain and takes a final checkpoint, and only then does the process exit —
// so the next boot warm-starts every tenant bit-identically.
//
//	fossd -serve-http :8475 -state-dir ./state
//	fossd -serve-http :8475 -tenants acme,globex -state-dir ./state
//	fossd -serve-http :8475 -tenant-spec 'acme=backend:gaussim,scale:0.35;globex=backend:selinger'

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/shard"
)

// parseTenantSpecs merges -tenants (bare names) and -tenant-spec
// (name=key:val,... entries separated by ';') into one ordered spec list.
// A name appearing in both collapses to the detailed spec. With no tenant
// named the fleet is one tenant, "default", carrying deflt verbatim — its
// explicit seed is used as given rather than re-derived from the name, so a
// single-tenant server trains the model its flags describe (seed 0 means
// "derive from the name" in every spec, this one included).
func parseTenantSpecs(tenants, tenantSpec string, deflt shard.TenantSpec) ([]shard.TenantSpec, error) {
	specs := map[string]shard.TenantSpec{}
	var order []string
	add := func(s shard.TenantSpec) {
		if _, seen := specs[s.Name]; !seen {
			order = append(order, s.Name)
		}
		specs[s.Name] = s
	}
	for _, name := range strings.Split(tenants, ",") {
		if name = strings.TrimSpace(name); name != "" {
			add(shard.TenantSpec{Name: name})
		}
	}
	for _, entry := range strings.Split(tenantSpec, ";") {
		if entry = strings.TrimSpace(entry); entry == "" {
			continue
		}
		name, kvs, _ := strings.Cut(entry, "=")
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("tenant-spec entry %q has no tenant name", entry)
		}
		s := shard.TenantSpec{Name: name}
		if kvs != "" {
			for _, kv := range strings.Split(kvs, ",") {
				k, v, ok := strings.Cut(strings.TrimSpace(kv), ":")
				if !ok {
					return nil, fmt.Errorf("tenant-spec %q: want key:val, got %q", name, kv)
				}
				var err error
				switch k {
				case "workload":
					s.Workload = v
				case "backend":
					s.Backend = v
				case "scale":
					s.Scale, err = strconv.ParseFloat(v, 64)
				case "seed":
					s.Seed, err = strconv.ParseInt(v, 10, 64)
				case "leader":
					// Cut split at the first colon only, so URL values
					// ("leader:http://h:8475") keep their own colons intact.
					s.Leader = v
				default:
					return nil, fmt.Errorf("tenant-spec %q: unknown key %q (want workload|backend|scale|seed|leader)", name, k)
				}
				if err != nil {
					return nil, fmt.Errorf("tenant-spec %q: bad %s %q: %v", name, k, v, err)
				}
			}
		}
		add(s)
	}
	if len(order) == 0 {
		deflt.Name = "default"
		return []shard.TenantSpec{deflt}, nil
	}
	out := make([]shard.TenantSpec, 0, len(order))
	for _, name := range order {
		out = append(out, specs[name])
	}
	return out, nil
}

// rootStoreErr refuses a -state-dir whose root holds a store. Before the
// fleet of one, a single-tenant fossd kept its checkpoint and WAL there;
// booting past them would cold-start "default" beside an orphaned model and
// its un-checkpointed feedback.
func rootStoreErr(stateDir string) error {
	for _, name := range []string{"MANIFEST", "wal.log"} {
		if _, err := os.Stat(filepath.Join(stateDir, name)); err == nil {
			return fmt.Errorf("%s holds a single-tenant store (%s at its root): move its contents to %s to keep serving it",
				stateDir, name, filepath.Join(stateDir, "default"))
		}
	}
	return nil
}

// servingOnlyErr names the flags that were set but only mean something under
// -serve-http. Without it fossd trains, evaluates and exits: it boots no
// fleet, follows no leader and writes no state, so accepting them would be
// ignoring them.
func servingOnlyErr(tenants, tenantSpec, role, stateDir, leaderAddr string) error {
	var set []string
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"-tenants", tenants != ""},
		{"-tenant-spec", tenantSpec != ""},
		{"-role follower", role == "follower"},
		{"-state-dir", stateDir != ""},
		{"-leader-addr", leaderAddr != ""},
	} {
		if f.set {
			set = append(set, f.name)
		}
	}
	if len(set) == 0 {
		return nil
	}
	return fmt.Errorf("without -serve-http these do nothing: %s", strings.Join(set, ", "))
}

// runSharded boots the fleet and serves the multi-tenant wire surface until
// SIGINT/SIGTERM, then drains it.
func runSharded(ctx context.Context, cfg shard.Config, specs []shard.TenantSpec, addr string, drain time.Duration) error {
	cfg.OnEvent = func(tenant, event string) {
		fmt.Printf("tenant %s: %s\n", tenant, event)
	}
	start := time.Now()
	router, err := shard.NewRouter(ctx, cfg, specs)
	if err != nil {
		return err
	}
	fmt.Printf("fleet up: %d tenant(s) %v in %s\n",
		len(router.Names()), router.Names(), time.Since(start).Truncate(time.Millisecond))

	srv := &http.Server{Addr: addr, Handler: service.NewMultiHTTPServer(router)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("\ndraining fleet...")
		// Order matters for losslessness: stop the listener and wait for
		// in-flight handlers first (their Serve/Record calls complete
		// normally), then drain the shards (final checkpoint per tenant),
		// then let the store locks go with the router.
		sctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "http shutdown:", err)
		}
		if err := router.Close(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "drain:", err)
		}
	}()

	fmt.Printf("serving multi-tenant HTTP on %s\n", addr)
	fmt.Println("  POST /v1/t/{tenant}/optimize    {\"query_id\": ...} | inline specs; \"execute\": true for a full turn")
	fmt.Println("  POST /v1/t/{tenant}/feedback    {\"serve_id\": ..., \"latency_ms\": ...}")
	fmt.Println("  GET  /v1/t/{tenant}/stats       POST /v1/t/{tenant}/checkpoint")
	fmt.Println("  GET  /v1/t/{tenant}/explain/{serve_id}   GET /v1/t/{tenant}/advisor")
	fmt.Println("  GET  /v1/t/{tenant}/metrics     GET /metrics (aggregate, tenant-labeled)")
	fmt.Println("  GET  /v1/stats (aggregate)      GET|POST /v1/tenants")
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-done
	fmt.Println("fleet drained cleanly")
	return nil
}
