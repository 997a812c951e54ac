// Package repl replicates a leader's checkpoints to follower processes over
// the leader's HTTP replication endpoints: an HTTPSource fetches published
// manifests and checkpoints (Source is the seam tests substitute), and a
// Tailer polls the manifest and hot-swaps newly published models into a
// follower's serving loop through the existing blue/green machinery.
// Followers never train; replication is pull-based and idempotent — a
// missed poll is caught up by the next one, because the manifest always
// names the complete latest checkpoint.
package repl

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/foss-db/foss/internal/store"
)

// Source is one place published checkpoints can be fetched from.
type Source interface {
	// Manifest returns the latest published manifest; ok=false when the
	// leader has not published a checkpoint yet (not an error — a follower
	// can boot before its leader's first checkpoint lands).
	Manifest(ctx context.Context) (store.Manifest, bool, error)
	// FetchCheckpoint returns the raw sealed blob of a checkpoint the
	// manifest named.
	FetchCheckpoint(ctx context.Context, name string) ([]byte, error)
	// String describes the source for logs.
	String() string
}

// HTTPSource tails a leader over its replication endpoints. base is the
// tenant's URL prefix on the leader, up to (not including) "/repl/..." —
// "http://host:8475/v1/t/{tenant}".
type HTTPSource struct {
	base   string
	client *http.Client
}

// NewHTTPSource builds a source over a leader's replication endpoints.
func NewHTTPSource(base string) *HTTPSource {
	return &HTTPSource{base: base, client: &http.Client{Timeout: 30 * time.Second}}
}

// Manifest implements Source: GET {base}/repl/manifest. 404 means the
// leader has no checkpoint yet; anything else non-200, and a body whose CRC
// does not match its fields, is an error.
func (s *HTTPSource) Manifest(ctx context.Context) (store.Manifest, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/repl/manifest", nil)
	if err != nil {
		return store.Manifest{}, false, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return store.Manifest{}, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return store.Manifest{}, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return store.Manifest{}, false, fmt.Errorf("repl: manifest fetch: %s: %s", resp.Status, body)
	}
	var m store.Manifest
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&m); err != nil {
		return store.Manifest{}, false, fmt.Errorf("repl: manifest decode: %w", err)
	}
	if err := m.Verify(); err != nil {
		return store.Manifest{}, false, fmt.Errorf("repl: manifest fetch: %w", err)
	}
	if m.Checkpoint == "" {
		return store.Manifest{}, false, nil
	}
	return m, true, nil
}

// FetchCheckpoint implements Source: GET {base}/repl/checkpoint/{name}. The
// blob's integrity is not trusted from the transport — DecodeCheckpoint
// re-validates the sealed envelope's checksum downstream.
func (s *HTTPSource) FetchCheckpoint(ctx context.Context, name string) ([]byte, error) {
	if !store.ValidCheckpointName(name) {
		return nil, fmt.Errorf("repl: invalid checkpoint name %q", name)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/repl/checkpoint/"+name, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("repl: checkpoint fetch %s: %s: %s", name, resp.Status, body)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("repl: checkpoint body %s: %w", name, err)
	}
	return blob, nil
}

// String implements Source.
func (s *HTTPSource) String() string { return "http:" + s.base }
