package main

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/shard"
)

// specDefault is what -workload/-backend/-scale/-seed give the implicit
// "default" tenant in the parseTenantSpecs tests.
var specDefault = shard.TenantSpec{Workload: "tpcds", Backend: "gaussim", Scale: 0.35, Seed: 7}

// tenantSpecCases are TestParseTenantSpecs' table and FuzzParseTenantSpecs'
// seed corpus.
var tenantSpecCases = []struct {
	name                string
	tenants, tenantSpec string
	want                []shard.TenantSpec
	wantErr             bool
}{
	{
		// No tenant named: a fleet of one, carrying the flags verbatim —
		// the explicit seed survives, so the router does not re-derive it
		// from the name.
		name: "implicit default",
		want: []shard.TenantSpec{{Name: "default", Workload: "tpcds", Backend: "gaussim", Scale: 0.35, Seed: 7}},
	},
	{
		name:    "bare names inherit nothing here",
		tenants: "acme, globex,",
		want:    []shard.TenantSpec{{Name: "acme"}, {Name: "globex"}},
	},
	{
		name:       "detailed spec",
		tenantSpec: "acme=workload:stack,backend:gaussim,scale:0.25,seed:42",
		want:       []shard.TenantSpec{{Name: "acme", Workload: "stack", Backend: "gaussim", Scale: 0.25, Seed: 42}},
	},
	{
		name:       "name in both collapses to the detailed spec, order kept",
		tenants:    "acme,globex",
		tenantSpec: "globex=backend:gaussim; initech",
		want:       []shard.TenantSpec{{Name: "acme"}, {Name: "globex", Backend: "gaussim"}, {Name: "initech"}},
	},
	{
		name:       "leader URL keeps its colons",
		tenantSpec: "acme=leader:http://10.0.0.1:8475",
		want:       []shard.TenantSpec{{Name: "acme", Leader: "http://10.0.0.1:8475"}},
	},
	{name: "missing name", tenantSpec: "=backend:gaussim", wantErr: true},
	{name: "unknown key", tenantSpec: "acme=color:red", wantErr: true},
	{name: "no colon", tenantSpec: "acme=backend", wantErr: true},
	{name: "bad scale", tenantSpec: "acme=scale:big", wantErr: true},
	{name: "bad seed", tenantSpec: "acme=seed:1.5", wantErr: true},
}

func TestParseTenantSpecs(t *testing.T) {
	for _, tc := range tenantSpecCases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseTenantSpecs(tc.tenants, tc.tenantSpec, specDefault)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tc.wantErr)
			}
			if !tc.wantErr && !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}

// FuzzParseTenantSpecs feeds parseTenantSpecs arbitrary -tenants and
// -tenant-spec values, seeded with TestParseTenantSpecs' table. It must never
// panic. What it accepts names every tenant once, non-empty, in the order
// the flags first name them ("default" when they name none), and the fleet
// preflight either accepts that list or refuses it with ErrBadConfig.
//
//	go test ./cmd/fossd -run '^$' -fuzz FuzzParseTenantSpecs -fuzztime 10s
func FuzzParseTenantSpecs(f *testing.F) {
	for _, tc := range tenantSpecCases {
		f.Add(tc.tenants, tc.tenantSpec)
	}
	configs := []shard.Config{
		{Defaults: shard.TenantSpec{Workload: "job", Backend: "selinger"}},
		{Defaults: shard.TenantSpec{Workload: "job", Backend: "selinger"}, Role: "follower"},
	}
	f.Fuzz(func(t *testing.T, tenants, tenantSpec string) {
		specs, err := parseTenantSpecs(tenants, tenantSpec, specDefault)
		if err != nil {
			return
		}
		var want []string
		named := map[string]bool{}
		name := func(n string) {
			if n = strings.TrimSpace(n); n != "" && !named[n] {
				named[n] = true
				want = append(want, n)
			}
		}
		for _, n := range strings.Split(tenants, ",") {
			name(n)
		}
		for _, entry := range strings.Split(tenantSpec, ";") {
			n, _, _ := strings.Cut(strings.TrimSpace(entry), "=")
			name(n)
		}
		if len(want) == 0 {
			want = []string{"default"}
		}
		got := make([]string, len(specs))
		seen := map[string]bool{}
		for i, s := range specs {
			if s.Name == "" || seen[s.Name] {
				t.Fatalf("accepted specs %+v: empty or repeated name %q", specs, s.Name)
			}
			seen[s.Name] = true
			got[i] = s.Name
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("accepted names %q, want first-seen order %q", got, want)
		}
		for _, cfg := range configs {
			if err := shard.Preflight(cfg, specs); err != nil && !errors.Is(err, fosserr.ErrBadConfig) {
				t.Fatalf("preflight of %+v: %v, want nil or ErrBadConfig", specs, err)
			}
		}
	})
}

// TestRootStoreErr: a state dir laid out by the pre-fleet single-tenant
// server is refused with the move it needs, not silently cold-started past.
func TestRootStoreErr(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "default"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := rootStoreErr(dir); err != nil {
		t.Fatalf("fleet-layout state dir refused: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := rootStoreErr(dir); err == nil || !strings.Contains(err.Error(), filepath.Join(dir, "default")) {
		t.Fatalf("root-level store: %v, want a refusal naming %s", err, filepath.Join(dir, "default"))
	}
}

// TestServingOnlyErr: a flag that only means something under -serve-http is
// refused without it, by name — -state-dir and -leader-addr used to be
// accepted and ignored (train, evaluate, exit 0, write nothing).
func TestServingOnlyErr(t *testing.T) {
	cases := []struct {
		name                                            string
		tenants, tenantSpec, role, stateDir, leaderAddr string
		want                                            string // "" = accepted
	}{
		{name: "train and evaluate", role: "leader"},
		{name: "tenants", tenants: "acme", role: "leader", want: "without -serve-http these do nothing: -tenants"},
		{name: "tenant spec", tenantSpec: "acme=backend:gaussim", role: "leader", want: "without -serve-http these do nothing: -tenant-spec"},
		{name: "follower", role: "follower", want: "without -serve-http these do nothing: -role follower"},
		{name: "state dir", role: "leader", stateDir: "./s", want: "without -serve-http these do nothing: -state-dir"},
		{name: "leader addr", role: "leader", leaderAddr: "http://h:8475", want: "without -serve-http these do nothing: -leader-addr"},
		{
			name: "every one named", tenants: "acme", role: "follower", stateDir: "./s", leaderAddr: "http://h:8475",
			want: "without -serve-http these do nothing: -tenants, -role follower, -state-dir, -leader-addr",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := servingOnlyErr(tc.tenants, tc.tenantSpec, tc.role, tc.stateDir, tc.leaderAddr)
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != tc.want {
				t.Fatalf("got %q, want %q", got, tc.want)
			}
		})
	}
}
