package paths

import (
	"fmt"
	"math/bits"

	"hotpotato/internal/graph"
)

// MaxReachBytes bounds a Reach matrix. NewReach refuses a network whose
// matrix would pass it before allocating anything. It also keeps the
// node count below 2^16, so the per-word prefix counts fit a uint16.
const MaxReachBytes = 128 << 20

// Reach is the forward-reach relation of a leveled network as one bit
// matrix: row s has bit d set when s forward-reaches d ≠ s. The matrix
// is stored word-major: word w of every row sits in one stripe of one
// word per node, so the bits a path draw tests for one destination at
// successive hops share a stripe instead of each taking its own row.
// Beside each row word it keeps the number of set bits in the row's
// earlier words, so the k-th destination of a source is found without
// a scan.
//
// The sweep that builds the matrix also decides whether the network is
// unique-path: whether every forward-path count is 0 or 1, as on a
// butterfly or Omega network. On such a network AppendPath walks the
// one path off the matrix and the up-neighbour lists the sweep ran
// over, which it keeps; the walk draws no randomness, so a caller that
// must consume its RNG as a counted draw would (one draw per hop)
// advances it by the path's length itself.
type Reach struct {
	g      *graph.Leveled
	nn     int      // nodes: the length of a stripe
	words  int      // words per row
	bits   []uint64 // word w of row s is bits[w*nn+s]
	pre    []uint16 // pre[s*words+w]: set bits of row s before word w
	cnt    []int32  // set bits per row
	unique bool

	// The up-neighbours of node v and the edges to them, in Node.Up
	// order, are ups[upOff[v]:upOff[v+1]].
	upOff []int32
	ups   []upLink
}

// upLink is one up-edge and the node it leads to.
type upLink struct {
	node graph.NodeID
	edge graph.EdgeID
}

// reachBytes is the size of the matrix over nn nodes: a word and its
// prefix count per 64 nodes per row, plus a row count.
func reachBytes(nn int) int {
	return nn * ((nn+63)/64*10 + 4)
}

// NewReach builds the reach matrix of g, or returns an error when it
// would take more than MaxReachBytes.
func NewReach(g *graph.Leveled) (*Reach, error) {
	return newReach(g, MaxReachBytes)
}

// newReach builds the matrix in one sweep from the top level down,
// R[s] = ⋃ over up-edges (s,u) of (R[u] ∪ {u}), run stripe by stripe
// over the up-edges listed once in sweep order, then counts each row's
// prefixes. The network is unique-path exactly when, at every s, those
// sets are pairwise disjoint: two of them sharing a node d give s two
// paths to d, and the first node where two distinct paths part fails
// the test. Two parallel edges to u share u.
func newReach(g *graph.Leveled, budget int) (*Reach, error) {
	nn := g.NumNodes()
	if size := reachBytes(nn); size > budget {
		return nil, fmt.Errorf("paths: the reach matrix of %d nodes takes %d bytes, past the %d-byte budget", nn, size, budget)
	}
	words := (nn + 63) / 64
	r := &Reach{
		g:      g,
		nn:     nn,
		words:  words,
		bits:   make([]uint64, nn*words),
		pre:    make([]uint16, nn*words),
		cnt:    make([]int32, nn),
		unique: true,
	}
	r.upOff = make([]int32, nn+1)
	r.ups = make([]upLink, 0, g.NumEdges())
	for v := 0; v < nn; v++ {
		for _, e := range g.Node(graph.NodeID(v)).Up {
			r.ups = append(r.ups, upLink{g.EndpointAt(e, graph.Forward), e})
		}
		r.upOff[v+1] = int32(len(r.ups))
	}
	// order lists the nodes below the top level from the top down, and
	// from[l] is where level l starts in it.
	order := make([]graph.NodeID, 0, nn)
	from := make([]int, g.Depth())
	for l := g.Depth() - 1; l >= 0; l-- {
		from[l] = len(order)
		order = append(order, g.Level(l)...)
	}
	// top[w] is the highest level of a node in word w. No node at that
	// level or above reaches one of them, so the stripe's sweep starts
	// one level below.
	top := make([]int, words)
	for v := 0; v < nn; v++ {
		top[v>>6] = max(top[v>>6], g.LevelOf(graph.NodeID(v)))
	}
	for w := 0; w < words; w++ {
		if top[w] == 0 {
			continue
		}
		stripe := r.bits[w*nn : (w+1)*nn]
		for _, s := range order[from[top[w]-1]:] {
			var x uint64
			for _, l := range r.ups[r.upOff[s]:r.upOff[s+1]] {
				u := l.node
				y := stripe[u]
				if int(u>>6) == w {
					y |= 1 << (u & 63)
				}
				if x&y != 0 {
					r.unique = false
				}
				x |= y
			}
			stripe[s] = x
		}
	}
	// The prefix counts go 64 rows at a time: the block's word counts
	// are read stripe by stripe into ones, then summed row by row.
	ones := make([]uint8, words*64)
	for s0 := 0; s0 < nn; s0 += 64 {
		n := min(64, nn-s0)
		for w := 0; w < words; w++ {
			for j, x := range r.bits[w*nn+s0 : w*nn+s0+n] {
				ones[j*words+w] = uint8(bits.OnesCount64(x))
			}
		}
		for j := 0; j < n; j++ {
			pre := r.pre[(s0+j)*words : (s0+j+1)*words]
			c := 0
			for w, o := range ones[j*words : (j+1)*words] {
				pre[w] = uint16(c)
				c += int(o)
			}
			r.cnt[s0+j] = int32(c)
		}
	}
	return r, nil
}

// Unique reports whether every forward-path count of the network is 0
// or 1.
func (r *Reach) Unique() bool { return r.unique }

// Contains reports whether s forward-reaches d ≠ s.
func (r *Reach) Contains(s, d graph.NodeID) bool {
	return r.bits[int(d>>6)*r.nn+int(s)]>>(d&63)&1 != 0
}

// Len is the number of nodes s forward-reaches, s excluded.
func (r *Reach) Len(s graph.NodeID) int { return int(r.cnt[s]) }

// Nth returns the k-th node s forward-reaches in ascending ID order,
// 0 ≤ k < Len(s). The word holding it is the last one whose prefix
// count is at most k, found by a binary search whose step compiles to a
// conditional move; the bit within the word is found by select64.
func (r *Reach) Nth(s graph.NodeID, k int) graph.NodeID {
	lo := int(s) * r.words
	pre := r.pre[lo : lo+r.words]
	w := 0
	for n := len(pre); n > 1; {
		half := n >> 1
		if int(pre[w+half]) <= k {
			w += half
		}
		n -= half
	}
	return graph.NodeID(w<<6 | select64(r.bits[w*r.nn+int(s)], k-int(pre[w])))
}

const (
	ones8 = 0x0101010101010101
	high8 = 0x8080808080808080
)

// selectInByte[j<<8|y] is the position of the j-th set bit of byte y.
var selectInByte = func() (t [8 << 8]uint8) {
	for y := 0; y < 256; y++ {
		j := 0
		for b := 0; b < 8; b++ {
			if y>>b&1 != 0 {
				t[j<<8|y] = uint8(b)
				j++
			}
		}
	}
	return t
}()

// select64 returns the position of the k-th set bit of x (from 0, least
// significant first); x has more than k set bits. Byte i of sums is the
// number of set bits in bytes 0..i; the bytes whose sum is at most k
// precede the byte holding the bit, and are counted by one subtraction
// per byte done in parallel (sums and k stay below 128, so no byte
// borrows from the next). The bit's rank within its byte then indexes
// selectInByte.
func select64(x uint64, k int) int {
	s := x - x>>1&0x5555555555555555
	s = s&0x3333333333333333 + s>>2&0x3333333333333333
	s = (s + s>>4) & 0x0f0f0f0f0f0f0f0f
	sums := s * ones8
	b := bits.OnesCount64(((uint64(k)*ones8|high8)-sums)&high8) << 3
	j := k - int(sums<<8>>b&0xff)
	return b + int(selectInByte[j<<8|int(x>>b&0xff)])
}

// AppendPath appends the forward src→dst path of a unique-path network
// to buf and returns the extended slice. Each hop takes the first
// up-neighbour u with u = dst or dst ∈ R[u]. The current node reaches
// dst, so when no other up-neighbour does the last one must, and it is
// taken untested. It is the one path CountTable.AppendPath draws on the
// same network, where every hop's choice is a draw among one; that
// draw consumes one RNG value per hop, which this walk does not. On a
// multi-path network it returns an error.
func (r *Reach) AppendPath(src, dst graph.NodeID, buf graph.Path) (graph.Path, error) {
	if !r.unique {
		return nil, fmt.Errorf("paths: %s has node pairs joined by several forward paths; draw through a CountTable", r.g.Name())
	}
	if !r.Contains(src, dst) {
		return nil, r.unreachable(src, dst)
	}
	// Every test is against dst's bit, so one stripe holds them all.
	w := int(dst >> 6)
	stripe, bit := r.bits[w*r.nn:(w+1)*r.nn], dst&63
	for cur := src; cur != dst; {
		links := r.ups[r.upOff[cur]:r.upOff[cur+1]]
		next := links[len(links)-1]
		for _, l := range links[:len(links)-1] {
			if l.node == dst || stripe[l.node]>>bit&1 != 0 {
				next = l
				break
			}
		}
		buf = append(buf, next.edge)
		cur = next.node
	}
	return buf, nil
}

// WalkSlots writes the forward src→dst path of a unique-path network
// into out as transmission slots, edge<<1 (graph.Forward is 0): the
// path AppendPath appends, by the same choice rule. out must have one
// entry per hop, the level of dst less the level of src, and src must
// forward-reach dst; neither is checked. Below the last hop dst is on
// a higher level than every up-neighbour, so only the matrix bit is
// tested, and a node with two up-links, as on a butterfly or Omega
// network, picks its hop by that bit without a branch.
func (r *Reach) WalkSlots(src, dst graph.NodeID, out []int32) {
	if len(out) == 0 {
		return
	}
	w := int(dst >> 6)
	stripe, bit := r.bits[w*r.nn:(w+1)*r.nn], dst&63
	cur := src
	last := len(out) - 1
	for i := range out[:last] {
		lo, hi := r.upOff[cur], r.upOff[cur+1]
		var next upLink
		if hi-lo == 2 {
			next = r.ups[lo+1-int32(stripe[r.ups[lo].node]>>bit&1)]
		} else {
			next = r.ups[hi-1]
			for _, l := range r.ups[lo : hi-1] {
				if stripe[l.node]>>bit&1 != 0 {
					next = l
					break
				}
			}
		}
		out[i] = int32(next.edge) << 1
		cur = next.node
	}
	links := r.ups[r.upOff[cur]:r.upOff[cur+1]]
	next := links[len(links)-1]
	for _, l := range links[:len(links)-1] {
		if l.node == dst {
			next = l
			break
		}
	}
	out[last] = int32(next.edge) << 1
}

// unreachable says why src does not forward-reach dst.
func (r *Reach) unreachable(src, dst graph.NodeID) error {
	if src == dst {
		return fmt.Errorf("paths: src == dst == %d; zero-length routing requests are not packets", src)
	}
	if ls, ld := r.g.LevelOf(src), r.g.LevelOf(dst); ld <= ls {
		return fmt.Errorf("paths: dst level %d not above src level %d", ld, ls)
	}
	return fmt.Errorf("paths: node %d cannot reach %d forward", src, dst)
}
