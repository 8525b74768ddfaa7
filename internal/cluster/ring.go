package cluster

import (
	"hash/fnv"
	"math"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring routing (scope, service, parameter-
// region) keys to replicas. Each replica appears as VNodes virtual
// points, so load spreads evenly and a membership change moves only the
// keys adjacent to the joining or leaving replica's points — the
// expected churn for one of N replicas is K/N of K keys, not a full
// reshuffle. Ring is not safe for concurrent use; the Node guards it
// with its mutex and rebuilds it on membership changes.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash
	nodes  map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing returns an empty ring with the given virtual-node count per
// replica (default 64).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]bool)}
}

// Add inserts a replica's virtual points (a no-op if already present).
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: hash64(node + "#" + strconv.Itoa(i)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a replica's virtual points (a no-op if absent).
func (r *Ring) Remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	for i := len(kept); i < len(r.points); i++ {
		r.points[i] = ringPoint{}
	}
	r.points = kept
}

// Has reports whether the replica is on the ring.
func (r *Ring) Has(node string) bool { return r.nodes[node] }

// Len returns the number of replicas on the ring.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes returns the replicas on the ring, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Owner returns the replica owning key: the first virtual point at or
// clockwise of the key's hash. ok is false on an empty ring.
func (r *Ring) Owner(key string) (owner string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node, true
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return finalize(h.Sum64())
}

// finalize avalanches the FNV sum (splitmix64's mixer). Raw FNV-1a
// spreads a change in the final byte by only ~2^48 — narrower than one
// ring arc on a small fleet — so without this, keys differing in a
// trailing character land in the same arc and a replica's virtual
// points cluster instead of spreading.
func finalize(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// paramRegionMask zeroes the low 40 mantissa bits of a float64, leaving
// the sign, exponent, and top 12 mantissa bits: parameters within ~0.02%
// of each other land in the same region.
const paramRegionMask = ^uint64(1<<40 - 1)

// RouteKey renders (scope, service, parameter-region) into the ring key.
// Parameters are quantized to coarse regions rather than exact values so
// a parameter sweep — thousands of nearby points — routes to one replica
// and stays hot in its memo, compile, and artifact caches, instead of
// scattering across the fleet. Every replica computes the same key for
// the same request, which is what makes at-most-one-hop forwarding
// sufficient.
func RouteKey(scope, service string, params []float64) string {
	var buf [64]byte // a typical key renders on the stack
	b := buf[:0]
	b = append(b, scope...)
	b = append(b, 0)
	b = append(b, service...)
	b = append(b, 0)
	for _, p := range params {
		bits := math.Float64bits(p) & paramRegionMask
		b = append(b, byte(bits>>40), byte(bits>>48), byte(bits>>56))
	}
	return string(b)
}
