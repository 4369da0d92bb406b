package topo

import (
	"fmt"

	"hotpotato/internal/graph"
)

// Omega returns the k-stage Omega network — the unrolled
// shuffle-exchange network the paper lists among leveled networks
// (Section 1.1). Levels 0..k each hold 2^k nodes indexed by a k-bit
// word; node (w, l) connects to (shuffle(w), l+1) and
// (shuffle(w) XOR 1, l+1), where shuffle rotates the word left by one
// bit. Depth L = k.
func Omega(k int) (*graph.Leveled, error) {
	if k < 1 {
		return nil, fmt.Errorf("topo: Omega needs k >= 1, got %d", k)
	}
	if k > 20 {
		return nil, fmt.Errorf("topo: Omega k=%d too large (max 20)", k)
	}
	rows := 1 << k
	b := graph.NewBuilder(fmt.Sprintf("omega(%d)", k))
	b.Grow(rows*(k+1), 2*rows*k)
	ids := addRowNodes(b, k, k)
	for l := 0; l < k; l++ {
		for w := 0; w < rows; w++ {
			s := shuffle(w, k)
			b.AddEdge(ids[l][w], ids[l+1][s])
			b.AddEdge(ids[l][w], ids[l+1][s^1])
		}
	}
	return b.Build()
}

// shuffle rotates a k-bit word left by one bit.
func shuffle(w, k int) int {
	msb := (w >> (k - 1)) & 1
	return ((w << 1) | msb) & (1<<k - 1)
}

// OmegaNode returns the NodeID of row w at level l in an Omega network
// built by Omega(k).
func OmegaNode(k, w, l int) graph.NodeID {
	return graph.NodeID(l*(1<<k) + w)
}

// OmegaRoutePath returns the unique self-routing path from row src at
// level 0 to row dst at level k: after the l-th shuffle the incoming
// bit (the old MSB) is replaced by bit k-1-l of dst via the exchange
// choice, which is the classic destination-tag routing of the Omega
// network.
func OmegaRoutePath(g *graph.Leveled, k, src, dst int) (graph.Path, error) {
	rows := 1 << k
	if src < 0 || src >= rows || dst < 0 || dst >= rows {
		return nil, fmt.Errorf("topo: omega rows out of range: src=%d dst=%d rows=%d", src, dst, rows)
	}
	p := make(graph.Path, 0, k)
	w := src
	for l := 0; l < k; l++ {
		s := shuffle(w, k)
		// Destination tag: bit k-1-l of dst becomes the new LSB.
		next := (s &^ 1) | ((dst >> (k - 1 - l)) & 1)
		e := g.EdgeBetween(OmegaNode(k, w, l), OmegaNode(k, next, l+1))
		if e == graph.NoEdge {
			return nil, fmt.Errorf("topo: missing omega edge at level %d rows %d->%d", l, w, next)
		}
		p = append(p, e)
		w = next
	}
	if w != dst {
		return nil, fmt.Errorf("topo: omega routing reached row %d, want %d", w, dst)
	}
	return p, nil
}
