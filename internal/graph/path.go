package graph

import "fmt"

// Path is a sequence of edges, as in the paper (Section 2.2): a path is
// denoted by its edge sequence. A *valid* path visits consecutive
// levels from a lower level to a higher level, i.e. every edge is
// traversed forward and consecutive edges share a node.
type Path []EdgeID

// ValidatePath checks that p is a valid forward path in g (paper
// definition of "valid path"). An empty path is valid.
func (g *Leveled) ValidatePath(p Path) error {
	for i := 0; i < len(p); i++ {
		if int(p[i]) < 0 || int(p[i]) >= len(g.edges) {
			return fmt.Errorf("graph: path references unknown edge %d at index %d", p[i], i)
		}
		if i > 0 {
			prev, cur := &g.edges[p[i-1]], &g.edges[p[i]]
			if prev.To != cur.From {
				return fmt.Errorf("graph: path edges %d and %d do not chain (levels %d->%d then %d->%d)",
					p[i-1], p[i],
					g.nodes[prev.From].Level, g.nodes[prev.To].Level,
					g.nodes[cur.From].Level, g.nodes[cur.To].Level)
			}
		}
	}
	return nil
}

// PathSource returns the first node of a non-empty valid path.
func (g *Leveled) PathSource(p Path) NodeID {
	return g.ends[p[0]][0]
}

// PathDest returns the last node of a non-empty valid path.
func (g *Leveled) PathDest(p Path) NodeID {
	return g.ends[p[len(p)-1]][1]
}

// PathNodes expands a path into its node sequence. For an empty path it
// returns nil.
func (g *Leveled) PathNodes(p Path) []NodeID {
	if len(p) == 0 {
		return nil
	}
	out := make([]NodeID, 0, len(p)+1)
	out = append(out, g.edges[p[0]].From)
	for _, e := range p {
		out = append(out, g.edges[e].To)
	}
	return out
}

// PathContainsLevel reports whether path p, whose first edge leaves a
// node at level start, passes through (or ends at) a node at the given
// level, and returns that node. Because valid paths are level-monotone
// this is a range check followed by an index. The caller supplies start
// (a router knows the level its packet stands at), which spares the
// dependent loads of the first edge's endpoint and that node's level.
func (g *Leveled) PathContainsLevel(p Path, start, level int) (NodeID, bool) {
	if len(p) == 0 || level < start || level > start+len(p) {
		return NoNode, false
	}
	if level == start {
		return g.ends[p[0]][0], true
	}
	return g.ends[p[level-start-1]][1], true
}

// Reachable computes the set of nodes from which dst can be reached via
// forward edges. The result is a bitmap indexed by NodeID. Used by path
// samplers to draw uniform-ish random forward paths without dead ends.
func (g *Leveled) Reachable(dst NodeID) []bool {
	ok := make([]bool, len(g.nodes))
	ok[dst] = true
	dl := g.nodes[dst].Level
	// Walk levels from dst's level down to 0; a node reaches dst iff
	// one of its up-neighbors does.
	for l := dl - 1; l >= 0; l-- {
		for _, id := range g.levels[l] {
			for _, e := range g.nodes[id].Up {
				if ok[g.edges[e].To] {
					ok[id] = true
					break
				}
			}
		}
	}
	return ok
}

// ForwardReachableFrom computes the set of nodes reachable from src via
// forward edges (including src itself).
func (g *Leveled) ForwardReachableFrom(src NodeID) []bool {
	ok := make([]bool, len(g.nodes))
	ok[src] = true
	sl := g.nodes[src].Level
	for l := sl; l < g.depth; l++ {
		for _, id := range g.levels[l] {
			if !ok[id] {
				continue
			}
			for _, e := range g.nodes[id].Up {
				ok[g.edges[e].To] = true
			}
		}
	}
	return ok
}

// CountForwardPaths computes, for every node, the number of distinct
// forward paths from that node to dst, saturating at the given cap to
// avoid overflow (cap<=0 means saturate at 1<<62). Nodes that cannot
// reach dst get 0. Used for near-uniform path sampling.
func (g *Leveled) CountForwardPaths(dst NodeID, cap int64) []int64 {
	if cap <= 0 {
		cap = 1 << 62
	}
	cnt := make([]int64, len(g.nodes))
	cnt[dst] = 1
	dl := g.nodes[dst].Level
	for l := dl - 1; l >= 0; l-- {
		for _, id := range g.levels[l] {
			var s int64
			for _, e := range g.nodes[id].Up {
				s += cnt[g.edges[e].To]
				if s >= cap {
					s = cap
					break
				}
			}
			cnt[id] = s
		}
	}
	return cnt
}
