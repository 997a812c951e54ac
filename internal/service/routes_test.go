package service

// Route-table tests: README's "HTTP endpoints" table and the registered
// routes are one list, and the mux — not the handlers — answers a wrong
// method, an unrouted path and a HEAD.

import (
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestRoutesMatchREADME keeps README's endpoint table and the route table
// the same list: every registered pattern has a row, every row is
// registered.
func TestRoutesMatchREADME(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(data), "\n### HTTP endpoints")
	table, _, _ = strings.Cut(table, "\n#")
	row := regexp.MustCompile("^\\| `((?:GET|POST) /[^`]*)` \\|")
	documented := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			documented[m[1]] = true
		}
	}
	if len(documented) == 0 {
		t.Fatal("README has no \"### HTTP endpoints\" table rows")
	}
	registered := map[string]bool{}
	for _, rt := range NewMultiHTTPServer(&fakeRegistry{}).routes() {
		registered[rt.pattern] = true
		if !documented[rt.pattern] {
			t.Errorf("route %q has no row in README's HTTP endpoints table", rt.pattern)
		}
	}
	for pattern := range documented {
		if !registered[pattern] {
			t.Errorf("README's HTTP endpoints table lists %q, but no such route is registered", pattern)
		}
	}
}

// TestRoutesWrongMethod: every method a path does not route is a 405 whose
// Allow header names exactly the methods it does (HEAD with every GET) —
// checked before the tenant is looked up, so an unknown tenant gets the
// same answer.
func TestRoutesWrongMethod(t *testing.T) {
	fleet := NewMultiHTTPServer(oneTenant(NewHTTPServer(New(syncConfig(), newFake("blue"), nil), HTTPOptions{})))
	allowed := map[string][]string{} // path pattern → methods it routes
	for _, rt := range fleet.routes() {
		method, path, _ := strings.Cut(rt.pattern, " ")
		allowed[path] = append(allowed[path], method)
		if method == http.MethodGet {
			allowed[path] = append(allowed[path], http.MethodHead)
		}
	}
	for path, methods := range allowed {
		slices.Sort(methods)
		want := strings.Join(methods, ", ")
		for _, tenant := range []string{"default", "nobody"} {
			url := strings.NewReplacer("{tenant}", tenant, "{serve_id}", "s1", "{name}", "x").Replace(path)
			for _, m := range []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete} {
				if slices.Contains(methods, m) {
					continue
				}
				rec := httptest.NewRecorder()
				fleet.ServeHTTP(rec, httptest.NewRequest(m, url, nil))
				if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != want {
					t.Errorf("%s %s: %d Allow %q, want 405 Allow %q", m, url, rec.Code, rec.Header().Get("Allow"), want)
				}
			}
		}
	}
}

// TestRoutesNetHTTPAnswers: an endpoint no route names is the mux's 404 for
// a known and an unknown tenant alike; an unknown tenant on a routed
// endpoint is the registry's JSON 404; HEAD is answered on a GET route.
func TestRoutesNetHTTPAnswers(t *testing.T) {
	fleet := NewMultiHTTPServer(oneTenant(NewHTTPServer(New(syncConfig(), newFake("blue"), nil), HTTPOptions{})))
	serve := func(method, url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		fleet.ServeHTTP(rec, httptest.NewRequest(method, url, nil))
		return rec
	}
	for _, url := range []string{"/v1/t/default/bogus", "/v1/t/nobody/bogus", "/v1/t/default/explain/", "/v1/t/default/repl/checkpoint/a/b"} {
		if rec := serve(http.MethodGet, url); rec.Code != http.StatusNotFound || strings.Contains(rec.Body.String(), `"error"`) {
			t.Errorf("GET %s: %d %q, want net/http's plain 404", url, rec.Code, rec.Body.String())
		}
	}
	if rec := serve(http.MethodGet, "/v1/t/nobody/stats"); rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), `unknown tenant \"nobody\"`) {
		t.Errorf("unknown tenant: %d %q, want the registry's JSON 404", rec.Code, rec.Body.String())
	}
	if rec := serve(http.MethodHead, "/v1/t/default/stats"); rec.Code != http.StatusOK {
		t.Errorf("HEAD stats: %d, want 200", rec.Code)
	}
}
