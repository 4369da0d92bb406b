// Package graph defines the leveled-network model used throughout the
// repository: a directed acyclic layered graph whose nodes are
// partitioned into levels 0..L and whose edges connect nodes in
// consecutive levels only, exactly as in Busch (SPAA 2002), Section 1.
//
// Edges are stored with a canonical forward orientation (From at level
// l, To at level l+1). During hot-potato routing both directions of an
// edge carry traffic; direction is a property of a traversal, not of
// the edge.
package graph

import (
	"fmt"
	"slices"
)

// NodeID identifies a node within a Leveled network. IDs are dense:
// 0..NumNodes()-1.
type NodeID int32

// EdgeID identifies an edge within a Leveled network. IDs are dense:
// 0..NumEdges()-1.
type EdgeID int32

// None is the sentinel for "no node" / "no edge".
const (
	NoNode NodeID = -1
	NoEdge EdgeID = -1
)

// Direction is the direction of a traversal along an edge.
type Direction int8

const (
	// Forward is a traversal from the edge's From node (level l) to its
	// To node (level l+1).
	Forward Direction = iota
	// Backward is a traversal from To (level l+1) down to From (level l).
	Backward
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Forward {
		return "forward"
	}
	return "backward"
}

// Reverse returns the opposite direction.
func (d Direction) Reverse() Direction {
	if d == Forward {
		return Backward
	}
	return Forward
}

// Node is a vertex of a leveled network.
type Node struct {
	ID    NodeID
	Level int
	// Up lists edges to level Level+1 (this node is the edge's From).
	Up []EdgeID
	// Down lists edges to level Level-1 (this node is the edge's To).
	Down []EdgeID
	// Label is an optional human-readable name set by generators
	// (e.g. "r2c3" on a mesh, "w=0101,l=2" on a butterfly).
	Label string
}

// Degree returns the total number of incident edges.
func (n *Node) Degree() int { return len(n.Up) + len(n.Down) }

// Edge is a link between consecutive levels, canonically oriented
// low-to-high.
type Edge struct {
	ID   EdgeID
	From NodeID // at level l
	To   NodeID // at level l+1
}

// Leveled is an immutable leveled network. Construct via Builder.
//
// Alongside the rich Node/Edge records the network keeps flat
// structure-of-arrays mirrors of the fields the routing hot path reads
// every step: edge endpoints (8 bytes per edge) and node levels (4
// bytes per node). EndpointAt, DirectionFrom, LevelOf and the path
// helpers read only these dense arrays, so a traversal decision touches
// one cache line instead of pulling a full Node (~80 bytes, label and
// adjacency headers included) or Edge record into cache. The mirrors
// are derived once in Build and never mutated.
type Leveled struct {
	name   string
	nodes  []Node
	edges  []Edge
	levels [][]NodeID // levels[l] lists the nodes at level l
	depth  int        // L: highest level index; levels 0..L exist

	// ends[e] is {From, To} of edge e — indexable by Direction:
	// ends[e][1-d] is the endpoint reached traversing e in direction d.
	ends [][2]NodeID
	// nodeLevel[v] mirrors nodes[v].Level.
	nodeLevel []int32
}

// Name returns the topology name supplied at build time ("" if none).
func (g *Leveled) Name() string { return g.name }

// Depth returns L, the highest level index. The network has L+1 levels.
func (g *Leveled) Depth() int { return g.depth }

// NumNodes returns the number of nodes.
func (g *Leveled) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of edges.
func (g *Leveled) NumEdges() int { return len(g.edges) }

// Node returns the node with the given ID. The returned pointer refers
// to the network's internal storage and must not be mutated.
func (g *Leveled) Node(id NodeID) *Node {
	return &g.nodes[id]
}

// Edge returns the edge with the given ID. The returned pointer refers
// to the network's internal storage and must not be mutated.
func (g *Leveled) Edge(id EdgeID) *Edge {
	return &g.edges[id]
}

// Level returns the node IDs at level l (internal slice; do not mutate).
func (g *Leveled) Level(l int) []NodeID {
	return g.levels[l]
}

// LevelWidth returns the number of nodes at level l.
func (g *Leveled) LevelWidth(l int) int { return len(g.levels[l]) }

// MaxLevelWidth returns the width of the widest level.
func (g *Leveled) MaxLevelWidth() int {
	w := 0
	for _, lv := range g.levels {
		if len(lv) > w {
			w = len(lv)
		}
	}
	return w
}

// MaxDegree returns the maximum node degree in the network.
func (g *Leveled) MaxDegree() int {
	d := 0
	for i := range g.nodes {
		if dd := g.nodes[i].Degree(); dd > d {
			d = dd
		}
	}
	return d
}

// EndpointAt returns the endpoint of edge e reached when traversing in
// direction dir (To for Forward, From for Backward).
func (g *Leveled) EndpointAt(e EdgeID, dir Direction) NodeID {
	return g.ends[e][1-dir]
}

// LevelOf returns the level of node v without materializing the full
// node record.
func (g *Leveled) LevelOf(v NodeID) int {
	return int(g.nodeLevel[v])
}

// Other returns the endpoint of edge e that is not v. It panics if v is
// not an endpoint of e.
func (g *Leveled) Other(e EdgeID, v NodeID) NodeID {
	ends := g.ends[e]
	switch v {
	case ends[0]:
		return ends[1]
	case ends[1]:
		return ends[0]
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d", v, e))
}

// DirectionFrom returns the direction of traversing edge e starting at
// node v. It panics if v is not an endpoint of e.
func (g *Leveled) DirectionFrom(e EdgeID, v NodeID) Direction {
	ends := g.ends[e]
	switch v {
	case ends[0]:
		return Forward
	case ends[1]:
		return Backward
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d", v, e))
}

// EdgeBetween returns the ID of an edge between u and w (in either
// orientation), or NoEdge if none exists. If multiple parallel edges
// exist the lowest ID is returned.
func (g *Leveled) EdgeBetween(u, w NodeID) EdgeID {
	nu := &g.nodes[u]
	best := NoEdge
	consider := func(e EdgeID) {
		ed := &g.edges[e]
		if (ed.From == u && ed.To == w) || (ed.From == w && ed.To == u) {
			if best == NoEdge || e < best {
				best = e
			}
		}
	}
	for _, e := range nu.Up {
		consider(e)
	}
	for _, e := range nu.Down {
		consider(e)
	}
	return best
}

// FindByLabel returns the first node whose Label equals label, or
// NoNode.
func (g *Leveled) FindByLabel(label string) NodeID {
	for i := range g.nodes {
		if g.nodes[i].Label == label {
			return g.nodes[i].ID
		}
	}
	return NoNode
}

// Stats summarizes structural properties of a leveled network.
type Stats struct {
	Name      string
	Nodes     int
	Edges     int
	Depth     int
	MaxWidth  int
	MinWidth  int
	MaxDegree int
	// Sources counts nodes with no Down edges; Sinks counts nodes with
	// no Up edges.
	Sources int
	Sinks   int
}

// ComputeStats summarizes g.
func (g *Leveled) ComputeStats() Stats {
	st := Stats{
		Name:     g.name,
		Nodes:    g.NumNodes(),
		Edges:    g.NumEdges(),
		Depth:    g.depth,
		MaxWidth: g.MaxLevelWidth(),
		MinWidth: g.NumNodes(),
	}
	for _, lv := range g.levels {
		if len(lv) < st.MinWidth {
			st.MinWidth = len(lv)
		}
	}
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.Degree() > st.MaxDegree {
			st.MaxDegree = n.Degree()
		}
		if len(n.Down) == 0 {
			st.Sources++
		}
		if len(n.Up) == 0 {
			st.Sinks++
		}
	}
	return st
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("%s: nodes=%d edges=%d depth=%d width=[%d,%d] maxdeg=%d",
		s.Name, s.Nodes, s.Edges, s.Depth, s.MinWidth, s.MaxWidth, s.MaxDegree)
}

// Validate re-checks the structural invariants of the network: every
// edge spans exactly one level, adjacency lists are consistent, and
// level membership matches node records. Builder.Build already
// guarantees these; Validate exists for tests and for networks
// deserialized from external input.
func (g *Leveled) Validate() error {
	if g.depth < 0 {
		return fmt.Errorf("graph: negative depth %d", g.depth)
	}
	if len(g.levels) != g.depth+1 {
		return fmt.Errorf("graph: have %d level slices, want %d", len(g.levels), g.depth+1)
	}
	seen := make([]bool, len(g.nodes))
	placed := 0
	for l, lv := range g.levels {
		for _, id := range lv {
			if int(id) < 0 || int(id) >= len(g.nodes) {
				return fmt.Errorf("graph: level %d references unknown node %d", l, id)
			}
			if g.nodes[id].Level != l {
				return fmt.Errorf("graph: node %d listed at level %d but records level %d", id, l, g.nodes[id].Level)
			}
			if seen[id] {
				return fmt.Errorf("graph: node %d appears in more than one level", id)
			}
			seen[id] = true
			placed++
		}
	}
	if placed != len(g.nodes) {
		return fmt.Errorf("graph: %d nodes placed in levels, want %d", placed, len(g.nodes))
	}
	for i := range g.edges {
		e := &g.edges[i]
		if e.ID != EdgeID(i) {
			return fmt.Errorf("graph: edge %d records ID %d", i, e.ID)
		}
		lf := g.nodes[e.From].Level
		lt := g.nodes[e.To].Level
		if lt != lf+1 {
			return fmt.Errorf("graph: edge %d spans levels %d->%d; must be consecutive", i, lf, lt)
		}
		if !containsEdge(g.nodes[e.From].Up, e.ID) {
			return fmt.Errorf("graph: edge %d missing from Up list of node %d", i, e.From)
		}
		if !containsEdge(g.nodes[e.To].Down, e.ID) {
			return fmt.Errorf("graph: edge %d missing from Down list of node %d", i, e.To)
		}
	}
	// Adjacency lists must reference real incident edges.
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.ID != NodeID(i) {
			return fmt.Errorf("graph: node %d records ID %d", i, n.ID)
		}
		for _, e := range n.Up {
			if g.edges[e].From != n.ID {
				return fmt.Errorf("graph: node %d Up lists edge %d whose From is %d", i, e, g.edges[e].From)
			}
		}
		for _, e := range n.Down {
			if g.edges[e].To != n.ID {
				return fmt.Errorf("graph: node %d Down lists edge %d whose To is %d", i, e, g.edges[e].To)
			}
		}
	}
	return nil
}

func containsEdge(list []EdgeID, e EdgeID) bool {
	for _, x := range list {
		if x == e {
			return true
		}
	}
	return false
}

// Builder incrementally constructs a Leveled network. Edges are only
// recorded as they are added; Build derives every node's Up and Down
// lists in one counting pass over them.
type Builder struct {
	name  string
	nodes []Node
	edges []Edge
	depth int
	err   error
}

// NewBuilder returns a Builder for a network with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, depth: -1}
}

// Grow reserves room for nodes more nodes and edges more edges, so a
// generator that knows its size appends without reallocating.
func (b *Builder) Grow(nodes, edges int) {
	b.nodes = slices.Grow(b.nodes, nodes)
	b.edges = slices.Grow(b.edges, edges)
}

// AddNode adds a node at the given level and returns its ID.
func (b *Builder) AddNode(level int, label string) NodeID {
	if level < 0 {
		b.fail(fmt.Errorf("graph: AddNode with negative level %d", level))
		return NoNode
	}
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Level: level, Label: label})
	if level > b.depth {
		b.depth = level
	}
	return id
}

// AddEdge adds an edge between nodes u and w, which must sit at
// consecutive levels (in either order); the edge is stored canonically
// low-to-high. It returns the new edge's ID.
func (b *Builder) AddEdge(u, w NodeID) EdgeID {
	if b.err != nil {
		return NoEdge
	}
	if !b.validNode(u) || !b.validNode(w) {
		b.fail(fmt.Errorf("graph: AddEdge with unknown node (%d,%d)", u, w))
		return NoEdge
	}
	lu, lw := b.nodes[u].Level, b.nodes[w].Level
	switch {
	case lw == lu+1:
		// canonical
	case lu == lw+1:
		u, w = w, u
	default:
		b.fail(fmt.Errorf("graph: AddEdge between levels %d and %d; must be consecutive", lu, lw))
		return NoEdge
	}
	id := EdgeID(len(b.edges))
	b.edges = append(b.edges, Edge{ID: id, From: u, To: w})
	return id
}

func (b *Builder) validNode(n NodeID) bool {
	return n >= 0 && int(n) < len(b.nodes)
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build finalizes the network. It returns an error if any builder call
// failed, if the network is empty, or if some level in 0..depth has no
// nodes.
func (b *Builder) Build() (*Leveled, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.nodes) == 0 {
		return nil, fmt.Errorf("graph: empty network %q", b.name)
	}
	g := &Leveled{
		name:  b.name,
		nodes: b.nodes,
		edges: b.edges,
		depth: b.depth,
	}
	g.levels = make([][]NodeID, b.depth+1)
	width := make([]int, b.depth+1)
	for i := range g.nodes {
		width[g.nodes[i].Level]++
	}
	// Levels are filled in ID order, so each comes out sorted; all of
	// them share one backing array, each capped at its own length.
	levelIDs := make([]NodeID, len(g.nodes))
	off := 0
	for l, n := range width {
		if n == 0 {
			return nil, fmt.Errorf("graph: level %d of %q has no nodes", l, b.name)
		}
		g.levels[l] = levelIDs[off : off : off+n]
		off += n
	}
	for i := range g.nodes {
		l := g.nodes[i].Level
		g.levels[l] = append(g.levels[l], g.nodes[i].ID)
	}
	buildAdjacency(g.nodes, g.edges)
	// Derive the flat hot-path mirrors (see the Leveled doc comment).
	g.ends = make([][2]NodeID, len(g.edges))
	for i := range g.edges {
		g.ends[i] = [2]NodeID{g.edges[i].From, g.edges[i].To}
	}
	g.nodeLevel = make([]int32, len(g.nodes))
	for i := range g.nodes {
		g.nodeLevel[i] = int32(g.nodes[i].Level)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// buildAdjacency sets every node's Up and Down lists to its incident
// edges in edge-ID order. All lists are carved from one backing array
// with cap == len, so appending to one never overwrites another; a node
// without edges in a direction keeps a nil list.
func buildAdjacency(nodes []Node, edges []Edge) {
	up := make([]int, len(nodes))
	down := make([]int, len(nodes))
	for i := range edges {
		up[edges[i].From]++
		down[edges[i].To]++
	}
	adj := make([]EdgeID, 2*len(edges))
	off := 0
	carve := func(n int) []EdgeID {
		if n == 0 {
			return nil
		}
		s := adj[off : off : off+n]
		off += n
		return s
	}
	for i := range nodes {
		nodes[i].Up = carve(up[i])
		nodes[i].Down = carve(down[i])
	}
	for i := range edges {
		e := &edges[i]
		nodes[e.From].Up = append(nodes[e.From].Up, e.ID)
		nodes[e.To].Down = append(nodes[e.To].Down, e.ID)
	}
}

// MustBuild is Build that panics on error; for use in tests and
// generators with statically-correct construction.
func (b *Builder) MustBuild() *Leveled {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
