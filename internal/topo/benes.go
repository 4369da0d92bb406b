package topo

import (
	"fmt"

	"hotpotato/internal/graph"
)

// Benes returns the k-dimensional Beneš network: a k-level butterfly
// followed by its mirror image, 2k+1 levels of 2^k rows in total. The
// Beneš network is rearrangeable — every permutation admits
// edge-disjoint paths (congestion 1) — which makes it the natural
// leveled network for testing the C = 1 extreme of the paper's bound.
func Benes(k int) (*graph.Leveled, error) {
	if k < 1 {
		return nil, fmt.Errorf("topo: Benes needs k >= 1, got %d", k)
	}
	if k > 16 {
		return nil, fmt.Errorf("topo: Benes k=%d too large (max 16)", k)
	}
	rows := 1 << k
	b := graph.NewBuilder(fmt.Sprintf("benes(%d)", k))
	b.Grow(rows*(2*k+1), 4*rows*k)
	ids := addRowNodes(b, k, 2*k)
	// First half: butterfly flipping bit k-1-l at level l (MSB first).
	for l := 0; l < k; l++ {
		bit := 1 << (k - 1 - l)
		for w := 0; w < rows; w++ {
			b.AddEdge(ids[l][w], ids[l+1][w])
			b.AddEdge(ids[l][w], ids[l+1][w^bit])
		}
	}
	// Second half: mirrored (LSB first).
	for l := k; l < 2*k; l++ {
		bit := 1 << (l - k)
		for w := 0; w < rows; w++ {
			b.AddEdge(ids[l][w], ids[l+1][w])
			b.AddEdge(ids[l][w], ids[l+1][w^bit])
		}
	}
	return b.Build()
}

// BenesNode returns the NodeID of row w at level l of a Beneš network
// built by Benes(k).
func BenesNode(k, w, l int) graph.NodeID {
	return graph.NodeID(l*(1<<k) + w)
}

// BenesLoopbackPath returns the forward path from row src at level 0 to
// row dst at level 2k that fixes source bits in the first half (descend
// to row dst? no — any intermediate row m works; this helper uses the
// "Valiant trick": route to the given intermediate row mid at level k,
// then to dst). Both halves use their bit-fixing structure, so the path
// is unique given mid.
func BenesLoopbackPath(g *graph.Leveled, k, src, mid, dst int) (graph.Path, error) {
	rows := 1 << k
	if src < 0 || src >= rows || dst < 0 || dst >= rows || mid < 0 || mid >= rows {
		return nil, fmt.Errorf("topo: benes rows out of range (src=%d mid=%d dst=%d rows=%d)", src, mid, dst, rows)
	}
	p := make(graph.Path, 0, 2*k)
	w := src
	for l := 0; l < k; l++ {
		bit := 1 << (k - 1 - l)
		next := w
		if (w^mid)&bit != 0 {
			next = w ^ bit
		}
		e := g.EdgeBetween(BenesNode(k, w, l), BenesNode(k, next, l+1))
		if e == graph.NoEdge {
			return nil, fmt.Errorf("topo: missing benes edge at level %d", l)
		}
		p = append(p, e)
		w = next
	}
	for l := k; l < 2*k; l++ {
		bit := 1 << (l - k)
		next := w
		if (w^dst)&bit != 0 {
			next = w ^ bit
		}
		e := g.EdgeBetween(BenesNode(k, w, l), BenesNode(k, next, l+1))
		if e == graph.NoEdge {
			return nil, fmt.Errorf("topo: missing benes edge at level %d", l)
		}
		p = append(p, e)
		w = next
	}
	if w != dst {
		return nil, fmt.Errorf("topo: benes routing reached %d, want %d", w, dst)
	}
	return p, nil
}
