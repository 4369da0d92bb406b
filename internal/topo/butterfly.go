package topo

import (
	"fmt"
	"strconv"
	"strings"

	"hotpotato/internal/graph"
)

// Butterfly returns the k-dimensional butterfly: levels 0..k, each with
// 2^k nodes indexed by a k-bit row word. Node (w, l) at level l<k
// connects to (w, l+1) (the "straight" edge) and (w XOR 2^(k-1-l), l+1)
// (the "cross" edge, flipping bit l counted from the most significant
// bit). Depth L = k; this is the canonical leveled network of Figure 1.
func Butterfly(k int) (*graph.Leveled, error) {
	if k < 1 {
		return nil, fmt.Errorf("topo: Butterfly needs k >= 1, got %d", k)
	}
	if k > 20 {
		return nil, fmt.Errorf("topo: Butterfly k=%d too large (max 20)", k)
	}
	rows := 1 << k
	b := graph.NewBuilder(fmt.Sprintf("butterfly(%d)", k))
	b.Grow(rows*(k+1), 2*rows*k)
	ids := addRowNodes(b, k, k)
	for l := 0; l < k; l++ {
		bit := 1 << (k - 1 - l)
		for w := 0; w < rows; w++ {
			b.AddEdge(ids[l][w], ids[l+1][w])
			b.AddEdge(ids[l][w], ids[l+1][w^bit])
		}
	}
	return b.Build()
}

// addRowNodes adds levels 0..depth of 2^k rows each to b, level-major
// (row w at level l gets ID l*2^k+w), labels them "w<k-bit row>.l<level>"
// and returns their IDs indexed [level][row]. Every label is a slice of
// one string, so labelling costs one allocation rather than one per node.
func addRowNodes(b *graph.Builder, k, depth int) [][]graph.NodeID {
	rows := 1 << k
	labelLen := func(l int) int { return len("w.l") + k + len(strconv.Itoa(l)) }
	size := 0
	for l := 0; l <= depth; l++ {
		size += rows * labelLen(l)
	}
	var sb strings.Builder
	sb.Grow(size)
	for l := 0; l <= depth; l++ {
		for w := 0; w < rows; w++ {
			sb.WriteByte('w')
			for bit := k - 1; bit >= 0; bit-- {
				sb.WriteByte('0' + byte(w>>bit&1))
			}
			sb.WriteString(".l")
			sb.WriteString(strconv.Itoa(l))
		}
	}
	all := sb.String()
	ids := make([][]graph.NodeID, depth+1)
	start := 0
	for l := range ids {
		n := labelLen(l)
		ids[l] = make([]graph.NodeID, rows)
		for w := range ids[l] {
			ids[l][w] = b.AddNode(l, all[start:start+n])
			start += n
		}
	}
	return ids
}

// ButterflyNode returns the NodeID of row w at level l in a butterfly
// built by Butterfly(k). It relies on the generator's construction
// order (level-major, then row).
func ButterflyNode(g *graph.Leveled, k, w, l int) graph.NodeID {
	return graph.NodeID(l*(1<<k) + w)
}

// ButterflyRow recovers the row word of a butterfly node.
func ButterflyRow(g *graph.Leveled, k int, id graph.NodeID) int {
	return int(id) % (1 << k)
}

// ButterflyBitFixPath returns the unique forward path from row src at
// level 0 to row dst at level k that fixes bits most-significant-first:
// at level l it takes the straight edge if bit l of src and dst agree,
// else the cross edge. This is the standard greedy butterfly path.
func ButterflyBitFixPath(g *graph.Leveled, k, src, dst int) (graph.Path, error) {
	rows := 1 << k
	if src < 0 || src >= rows || dst < 0 || dst >= rows {
		return nil, fmt.Errorf("topo: butterfly rows out of range: src=%d dst=%d rows=%d", src, dst, rows)
	}
	p := make(graph.Path, 0, k)
	w := src
	for l := 0; l < k; l++ {
		bit := 1 << (k - 1 - l)
		next := w
		if (w^dst)&bit != 0 {
			next = w ^ bit
		}
		e := g.EdgeBetween(ButterflyNode(g, k, w, l), ButterflyNode(g, k, next, l+1))
		if e == graph.NoEdge {
			return nil, fmt.Errorf("topo: missing butterfly edge at level %d rows %d->%d", l, w, next)
		}
		p = append(p, e)
		w = next
	}
	return p, nil
}
