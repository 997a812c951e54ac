// Command fossgate fronts a replicated fossd fleet: a consistent-hash ring
// maps each tenant onto one fleet member with minimal movement when
// membership changes, and every /v1/t/{tenant}/* request is proxied to the
// owning process. /metrics and /v1/stats fan out to the whole fleet and
// merge, so one scrape (one dashboard) sees every member.
//
// Usage:
//
//	fossgate -listen :8400 -members 127.0.0.1:8475,127.0.0.1:8476,127.0.0.1:8477
//	fossgate -listen :8400 -members ... -failover
//
// With -failover a request whose owner is unreachable (transport error, not
// an HTTP error status) retries against the next member in the tenant's
// preference list — pointed at followers, that keeps reads served through a
// leader crash.
//
// The gate holds no state: it can restart or run replicated behind a TCP
// load balancer without any handoff.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/foss-db/foss/internal/gate"
)

func main() {
	var (
		listen   = flag.String("listen", ":8400", "gate listen address")
		members  = flag.String("members", "", "comma-separated fleet member addresses (host:port or http://host:port)")
		failover = flag.Bool("failover", false, "retry the next member in a tenant's preference list when the owner is unreachable")
		vnodes   = flag.Int("vnodes", 0, "virtual nodes per member on the hash ring (0 = default)")
	)
	flag.Parse()

	var list []string
	for _, m := range strings.Split(*members, ",") {
		if m = strings.TrimSpace(m); m != "" {
			list = append(list, m)
		}
	}
	p, err := gate.NewProxy(gate.Options{Members: list, VNodes: *vnodes, Failover: *failover})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gate:", err)
		os.Exit(1)
	}

	srv := &http.Server{Addr: *listen, Handler: p}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("\ngate shutting down...")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "gate shutdown:", err)
		}
	}()

	fmt.Printf("gate up on %s: %d member(s), failover=%v\n", *listen, len(p.Ring().Members()), *failover)
	for _, m := range p.Ring().Members() {
		fmt.Printf("  member %s\n", m)
	}
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "gate:", err)
		os.Exit(1)
	}
	<-done
	fmt.Println("gate stopped")
}
