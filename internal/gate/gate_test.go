package gate

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestRingDeterministicAndBalanced: the same membership in any order maps
// every key identically, and ownership spreads across members.
func TestRingDeterministicAndBalanced(t *testing.T) {
	a := NewRing([]string{"n1:1", "n2:1", "n3:1"}, 64)
	b := NewRing([]string{"n3:1", "n1:1", "n2:1"}, 64)
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		key := "tenant" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("order-dependent owner for %q", key)
		}
		counts[a.Owner(key)]++
	}
	for _, m := range a.Members() {
		if counts[m] == 0 {
			t.Fatalf("member %s owns nothing: %v", m, counts)
		}
	}
}

// TestRingMinimalMovement: removing one member of five reassigns only the
// keys that member owned — everything else stays put.
func TestRingMinimalMovement(t *testing.T) {
	members := []string{"a:1", "b:1", "c:1", "d:1", "e:1"}
	before := NewRing(members, 64)
	after := NewRing(members[:4], 64) // e leaves
	moved, kept := 0, 0
	for i := 0; i < 1000; i++ {
		key := "k" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
		ob, oa := before.Owner(key), after.Owner(key)
		if ob == "e:1" {
			if oa == "e:1" {
				t.Fatalf("key %q still owned by removed member", key)
			}
			continue
		}
		if ob == oa {
			kept++
		} else {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys moved between surviving members (kept %d) — not minimal", moved, kept)
	}
}

// TestRingOwnersPreferenceList: distinct members, owner first, capped at
// membership size.
func TestRingOwnersPreferenceList(t *testing.T) {
	r := NewRing([]string{"x:1", "y:1", "z:1"}, 64)
	owners := r.Owners("tenant-a", 5)
	if len(owners) != 3 {
		t.Fatalf("owners = %v, want 3 distinct", owners)
	}
	seen := map[string]bool{}
	for _, o := range owners {
		if seen[o] {
			t.Fatalf("duplicate in preference list: %v", owners)
		}
		seen[o] = true
	}
	if owners[0] != r.Owner("tenant-a") {
		t.Fatalf("preference list head %q != owner %q", owners[0], r.Owner("tenant-a"))
	}
}

// member spins up a fake fleet process that records which paths it saw,
// escaped as they arrived.
func member(t *testing.T, name string) (*httptest.Server, *[]string) {
	t.Helper()
	var paths []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		paths = append(paths, r.URL.EscapedPath())
		switch {
		case r.URL.Path == "/metrics":
			io.WriteString(w, "# HELP foss_served_total Queries served.\n# TYPE foss_served_total counter\nfoss_served_total 7\n")
		case r.URL.Path == "/v1/stats":
			io.WriteString(w, `{"backend":"`+name+`"}`)
		default:
			body, _ := io.ReadAll(r.Body)
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"member":"`+name+`","echo":`+strings.TrimSpace(string(body))+`}`)
		}
	}))
	t.Cleanup(srv.Close)
	return srv, &paths
}

// TestProxyRoutesToOwner: a tenant request lands on exactly the ring owner,
// path intact.
func TestProxyRoutesToOwner(t *testing.T) {
	s1, p1 := member(t, "m1")
	s2, p2 := member(t, "m2")
	p, err := NewProxy(Options{Members: []string{s1.URL, s2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(p)
	defer gw.Close()

	resp, err := http.Post(gw.URL+"/v1/t/acme/optimize", "application/json", strings.NewReader(`{"q":1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"echo":{"q":1}`) {
		t.Fatalf("status=%d body=%s", resp.StatusCode, body)
	}
	want := p.Ring().Owner("acme")
	hits1, hits2 := len(*p1), len(*p2)
	switch want {
	case s1.URL:
		if hits1 != 1 || hits2 != 0 {
			t.Fatalf("owner %s: hits m1=%d m2=%d", want, hits1, hits2)
		}
		if (*p1)[0] != "/v1/t/acme/optimize" {
			t.Fatalf("path rewritten: %v", *p1)
		}
	case s2.URL:
		if hits2 != 1 || hits1 != 0 {
			t.Fatalf("owner %s: hits m1=%d m2=%d", want, hits1, hits2)
		}
	default:
		t.Fatalf("owner %q is neither member", want)
	}
}

// TestProxyEscapedTenant: an escaped slash stays inside the tenant segment.
// The gate hashes the decoded tenant "a/b" — the name a member's mux routes
// on — and the member receives the path exactly as the client escaped it.
func TestProxyEscapedTenant(t *testing.T) {
	s1, p1 := member(t, "m1")
	s2, p2 := member(t, "m2")
	p, err := NewProxy(Options{Members: []string{s1.URL, s2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(p)
	defer gw.Close()

	resp, err := http.Get(gw.URL + "/v1/t/a%2Fb/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	owner := p1
	if p.Ring().Owner("a/b") == s2.URL {
		owner = p2
	}
	if len(*p1)+len(*p2) != 1 || len(*owner) != 1 || (*owner)[0] != "/v1/t/a%2Fb/stats" {
		t.Fatalf("member paths m1=%v m2=%v, want the owner of tenant a/b to see /v1/t/a%%2Fb/stats once", *p1, *p2)
	}
}

// TestProxyFailover: with the owner down, the request lands on the next
// member of the preference list; without failover it is a 502.
func TestProxyFailover(t *testing.T) {
	s1, _ := member(t, "m1")
	s2, _ := member(t, "m2")
	// Find a tenant owned by s1, then kill s1.
	probe, err := NewProxy(Options{Members: []string{s1.URL, s2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	tenant := ""
	for _, cand := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		if probe.Ring().Owner(cand) == s1.URL {
			tenant = cand
			break
		}
	}
	if tenant == "" {
		t.Fatal("no tenant hashed onto s1")
	}
	s1.Close()

	strict, _ := NewProxy(Options{Members: []string{s1.URL, s2.URL}})
	gw := httptest.NewServer(strict)
	resp, err := http.Get(gw.URL + "/v1/t/" + tenant + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	gw.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("no-failover status = %d, want 502", resp.StatusCode)
	}

	failover, _ := NewProxy(Options{Members: []string{s1.URL, s2.URL}, Failover: true})
	gw2 := httptest.NewServer(failover)
	defer gw2.Close()
	resp2, err := http.Get(gw2.URL + "/v1/t/" + tenant + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != 200 || !strings.Contains(string(body), `"member":"m2"`) {
		t.Fatalf("failover: status=%d body=%s", resp2.StatusCode, body)
	}
}

// TestProxyMetricsMerge: one scrape carries every member's series under
// instance labels, family headers unrepeated, plus the gate's own counters.
func TestProxyMetricsMerge(t *testing.T) {
	s1, _ := member(t, "m1")
	s2, _ := member(t, "m2")
	p, err := NewProxy(Options{Members: []string{s1.URL, s2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(p)
	defer gw.Close()

	resp, err := http.Get(gw.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if n := strings.Count(text, "# TYPE foss_served_total counter"); n != 1 {
		t.Fatalf("family header repeated %d times:\n%s", n, text)
	}
	for _, m := range []string{s1.URL, s2.URL} {
		if !strings.Contains(text, `foss_served_total{instance="`+m+`"} 7`) {
			t.Fatalf("missing instance series for %s:\n%s", m, text)
		}
	}
	if !strings.Contains(text, "foss_gate_proxied_total") || !strings.Contains(text, "foss_gate_failovers_total") {
		t.Fatalf("gate counters missing:\n%s", text)
	}
}

// keys returns a JSON object's key set, sorted.
func keys(t *testing.T, body []byte) []string {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(body, &obj); err != nil {
		t.Fatalf("body is not a JSON object: %v: %s", err, body)
	}
	var ks []string
	for k := range obj {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("GET %s: %d %q: %s", url, resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
	return body
}

// TestProxyStatsFanOut: /v1/stats aggregates each member's body keyed by
// address, and /v1/gate reports membership.
func TestProxyStatsFanOut(t *testing.T) {
	s1, _ := member(t, "m1")
	s2, _ := member(t, "m2")
	p, err := NewProxy(Options{Members: []string{s1.URL, s2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(p)
	defer gw.Close()

	body := get(t, gw.URL+"/v1/stats")
	if ks := keys(t, body); !reflect.DeepEqual(ks, []string{"errors", "members"}) {
		t.Fatalf("stats keys = %v", ks)
	}
	var agg struct {
		Members map[string]json.RawMessage `json:"members"`
		Errors  map[string]string          `json:"errors"`
	}
	if err := json.Unmarshal(body, &agg); err != nil {
		t.Fatal(err)
	}
	if len(agg.Members) != 2 || len(agg.Errors) != 0 {
		t.Fatalf("agg = %+v", agg)
	}
	if ks := keys(t, agg.Members[s1.URL]); !reflect.DeepEqual(ks, []string{"backend"}) {
		t.Fatalf("member body keys = %v", ks)
	}

	body = get(t, gw.URL+"/v1/gate?tenant=acme")
	if ks := keys(t, body); !reflect.DeepEqual(ks, []string{"failover", "members", "owners", "tenant"}) {
		t.Fatalf("gate keys = %v", ks)
	}
	var info struct {
		Members []string `json:"members"`
		Owners  []string `json:"owners"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if len(info.Members) != 2 || len(info.Owners) != 2 {
		t.Fatalf("gate info = %+v", info)
	}
	if info.Owners[0] != p.Ring().Owner("acme") {
		t.Fatalf("owners[0] = %q, want ring owner %q", info.Owners[0], p.Ring().Owner("acme"))
	}
	if ks := keys(t, get(t, gw.URL+"/v1/gate")); !reflect.DeepEqual(ks, []string{"failover", "members"}) {
		t.Fatalf("gate keys without a tenant = %v", ks)
	}
}

// TestProxyStatsInvalidMemberBody: a member answering 200 with a body that
// is not JSON is reported under errors; the page stays valid JSON.
func TestProxyStatsInvalidMemberBody(t *testing.T) {
	good, _ := member(t, "m1")
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"backend": truncated`)
	}))
	defer bad.Close()
	p, err := NewProxy(Options{Members: []string{good.URL, bad.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(p)
	defer gw.Close()

	var agg struct {
		Members map[string]json.RawMessage `json:"members"`
		Errors  map[string]string          `json:"errors"`
	}
	if err := json.Unmarshal(get(t, gw.URL+"/v1/stats"), &agg); err != nil {
		t.Fatal(err)
	}
	if _, ok := agg.Members[good.URL]; !ok || len(agg.Members) != 1 || agg.Errors[bad.URL] == "" {
		t.Fatalf("agg = %+v, want %s under members and %s under errors", agg, good.URL, bad.URL)
	}
}

// TestInjectLabel covers both sample shapes.
func TestInjectLabel(t *testing.T) {
	if got := injectLabel(`foss_epoch 3`, "instance", "a:1"); got != `foss_epoch{instance="a:1"} 3` {
		t.Fatalf("bare: %s", got)
	}
	if got := injectLabel(`foss_x{tenant="t"} 1`, "instance", "a:1"); got != `foss_x{instance="a:1",tenant="t"} 1` {
		t.Fatalf("labeled: %s", got)
	}
}
