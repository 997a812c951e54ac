// Package gate fronts a replicated serving fleet: a consistent-hash ring
// maps tenants onto fleet members with minimal movement when membership
// changes, and an HTTP proxy forwards each /v1/t/{tenant}/* request to the
// owning process — with optional failover to the next replica in the
// tenant's preference list when the owner is unreachable.
//
// The gate holds no model state and makes no routing decisions beyond
// hashing: it can restart, or run replicated itself, without any handoff.
package gate

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is an immutable consistent-hash ring over fleet members. Each member
// projects DefaultVNodes virtual points onto the 64-bit hash circle; a key is
// owned by the first member point at or clockwise from the key's hash.
// Immutability keeps lookups lock-free: membership changes build a new Ring.
type Ring struct {
	points  []ringPoint // sorted by hash
	members []string    // sorted, deduped
}

type ringPoint struct {
	hash   uint64
	member string
}

// DefaultVNodes balances ownership to within a few percent for small
// fleets without bloating the point list.
const DefaultVNodes = 128

// NewRing builds a ring over the given members (deduped; order does not
// matter — two gates configured with the same set in any order agree on
// every owner).
func NewRing(members []string) *Ring {
	seen := map[string]bool{}
	r := &Ring{}
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		r.members = append(r.members, m)
		for i := 0; i < DefaultVNodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", m, i)), member: m})
		}
	}
	sort.Strings(r.members)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by name so every gate agrees.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Members returns the ring's member set, sorted.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Owners returns key's preference list: the first n distinct members
// clockwise from the key's hash. The list is what failover walks — the
// owner first, then the members that would own the key if the ones before
// them left the ring.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, n)
	seen := map[string]bool{}
	for i := 0; i < len(r.points) && len(owners) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			owners = append(owners, p.member)
		}
	}
	return owners
}

// hash64 is fnv64a with a splitmix64 finalizer. Raw FNV-1a multiplies the
// last byte's contribution only once, so near-identical strings ("m#0",
// "m#1", …) land adjacent on the circle and a member's vnodes clump into
// one arc; the avalanche step spreads them uniformly.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
