package paths

import (
	"fmt"
	"math/bits"
	"math/rand"

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
// butterfly or Omega network. On such a network AppendPath draws paths
// off the matrix alone.
type Reach struct {
	g      *graph.Leveled
	nn     int      // nodes: the length of a stripe
	words  int      // words per row
	bits   []uint64 // word w of row s is bits[w*nn+s]
	pre    []uint16 // pre[s*words+w]: set bits of row s before word w
	cnt    []int32  // set bits per row
	unique bool
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
	// order lists the nodes below the top level from the top down, from[l]
	// is where level l starts in it, and the up-neighbours of order[i]
	// are ups[off[i]:off[i+1]].
	order := make([]graph.NodeID, 0, nn)
	ups := make([]graph.NodeID, 0, g.NumEdges())
	off := make([]int32, 1, nn+1)
	from := make([]int, g.Depth())
	for l := g.Depth() - 1; l >= 0; l-- {
		from[l] = len(order)
		for _, s := range g.Level(l) {
			order = append(order, s)
			for _, e := range g.Node(s).Up {
				ups = append(ups, g.EndpointAt(e, graph.Forward))
			}
			off = append(off, int32(len(ups)))
		}
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
		for i := from[top[w]-1]; i < len(order); i++ {
			var x uint64
			for _, u := range ups[off[i]:off[i+1]] {
				y := stripe[u]
				if int(u>>6) == w {
					y |= 1 << (u & 63)
				}
				if x&y != 0 {
					r.unique = false
				}
				x |= y
			}
			stripe[order[i]] = x
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
// taken untested. The draw calls rng.Int63n(1) per hop, consuming the
// RNG as CountTable.AppendPath does on the same network, and draws the
// same path. On a multi-path network it returns an error.
func (r *Reach) AppendPath(rng *rand.Rand, src, dst graph.NodeID, buf graph.Path) (graph.Path, error) {
	g := r.g
	if !r.unique {
		return nil, fmt.Errorf("paths: %s has node pairs joined by several forward paths; draw through a CountTable", g.Name())
	}
	if src == dst {
		return nil, fmt.Errorf("paths: src == dst == %d; zero-length routing requests are not packets", src)
	}
	ls, ld := g.LevelOf(src), g.LevelOf(dst)
	if ld <= ls {
		return nil, fmt.Errorf("paths: dst level %d not above src level %d", ld, ls)
	}
	if !r.Contains(src, dst) {
		return nil, fmt.Errorf("paths: node %d cannot reach %d forward", src, dst)
	}
	for cur := src; cur != dst; {
		up := g.Node(cur).Up
		rng.Int63n(1)
		last := len(up) - 1
		for i, e := range up {
			if next := g.EndpointAt(e, graph.Forward); i == last || next == dst || r.Contains(next, dst) {
				buf = append(buf, e)
				cur = next
				break
			}
		}
	}
	return buf, nil
}
