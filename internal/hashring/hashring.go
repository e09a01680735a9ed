// Package hashring implements the ID-based consistent hashing IPS clients
// use for load balancing across instances (§III). Each instance owns many
// virtual nodes on a 64-bit ring; a profile ID maps to the first virtual
// node clockwise from its hash. Adding or removing an instance only
// remaps the keys adjacent to its virtual nodes, which is what lets the
// cluster scale horizontally without a full reshuffle.
package hashring

import (
	"sort"
	"sync"
)

// DefaultVirtualNodes is the per-instance virtual node count; more nodes
// smooth the key distribution at the cost of ring size.
const DefaultVirtualNodes = 128

// Ring is a consistent-hash ring mapping uint64 keys to named nodes. It is
// safe for concurrent use; lookups take a read lock only.
type Ring struct {
	mu      sync.RWMutex
	vnodes  int
	points  []point // sorted by hash
	members map[string]struct{}
}

type point struct {
	hash uint64
	node string
}

// New creates a ring with the given virtual-node count per member
// (DefaultVirtualNodes if vnodes <= 0).
func New(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]struct{})}
}

// hash64 mixes a 64-bit key (splitmix64 finalizer) — fast and well
// distributed for sequential IDs.
//
//ips:hotpath
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString hashes a node name + virtual index (FNV-1a then mixed).
func hashString(s string, idx int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= uint64(idx)
	h *= prime64
	return hash64(h)
}

// Add inserts a node; adding an existing node is a no-op.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[node]; ok {
		return
	}
	r.members[node] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{hash: hashString(node, i), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a node and its virtual nodes.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[node]; !ok {
		return
	}
	delete(r.members, node)
	out := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			out = append(out, p)
		}
	}
	r.points = out
}

// SetMembers replaces the membership wholesale (the client's periodic
// refresh from service discovery).
func (r *Ring) SetMembers(nodes []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.members = make(map[string]struct{}, len(nodes))
	r.points = r.points[:0]
	for _, n := range nodes {
		if _, dup := r.members[n]; dup {
			continue
		}
		r.members[n] = struct{}{}
		for i := 0; i < r.vnodes; i++ {
			r.points = append(r.points, point{hash: hashString(n, i), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Get returns the node owning key, or "" when the ring is empty.
//
//ips:hotpath
func (r *Ring) Get(key uint64) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	i := r.search(hash64(key))
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// search returns the index of the first virtual node at or clockwise
// after h, len(r.points) when h is past the last one. Caller holds r.mu.
//
//ips:hotpath
func (r *Ring) search(h uint64) int {
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// GetN returns the first n distinct nodes clockwise from key, for
// replicated placement. Fewer are returned when the ring has fewer members.
func (r *Ring) GetN(key uint64, n int) []string {
	return r.AppendN(nil, key, n)
}

// AppendN is GetN appending into dst: with a caller-provided dst of
// sufficient capacity (the client's failover ladder uses a small stack
// array) the lookup allocates nothing. n is small, so distinctness is a
// scan of what was appended rather than a set.
func (r *Ring) AppendN(dst []string, key uint64, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return dst
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	i := r.search(hash64(key))
	base := len(dst)
next:
	for len(dst)-base < n {
		if i == len(r.points) {
			i = 0
		}
		node := r.points[i].node
		i++
		for _, have := range dst[base:] {
			if have == node {
				continue next
			}
		}
		dst = append(dst, node)
	}
	return dst
}

// Clone returns an independent ring with the same virtual-node count and
// membership. The rebalance planner derives old-vs-new ownership views
// ("the ring after this join/drain") from the live ring without
// perturbing it.
func (r *Ring) Clone() *Ring {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := &Ring{vnodes: r.vnodes, members: make(map[string]struct{}, len(r.members))}
	for n := range r.members {
		c.members[n] = struct{}{}
	}
	c.points = append([]point(nil), r.points...)
	return c
}

// Members returns the current node set, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for n := range r.members {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}
