package paths

import (
	"fmt"
	"math/rand"

	"hotpotato/internal/graph"
)

// satCap saturates forward-path counts: a count past it is stored as
// satCap, so draws stay exactly uniform below it and near-uniform above.
const satCap = 1 << 40

// MaxCountBytes bounds the count rows one CountTable keeps at once:
// batch path selection and the open-system engine on a multi-path
// network both keep rows while their total size stays within it and
// recount later destinations per draw instead.
const MaxCountBytes = 32 << 20

// countWord is a byte row's entry type; a row uses the narrowest one
// that holds its largest saturated count. Rows whose counts are all 0
// or 1 are bit rows instead (bitWidth).
type countWord interface {
	uint8 | uint16 | uint32 | uint64
}

// bitWidth marks a bit row: one bit per node, packed into uint64 words.
const bitWidth = 0x80

// countRow locates one destination's kept row: entries of width bytes
// starting at entry off of that width's arena, or for a bit row words
// starting at word off of the bit arena. width 0 = no row kept.
type countRow struct {
	off   int32
	width uint8
}

// CountTable holds saturating forward-path counts, one row per
// destination: row d, entry v is the number of forward paths from v to
// d (capped at 2^40), which is positive exactly when v forward-reaches
// d. Each row is stored at the narrowest width that holds its largest
// count — one bit per node when every count is 0 or 1, as on a
// butterfly, Beneš or Omega network, else 1, 2, 4 or 8 bytes — carved
// from one arena per width. Rows are kept while their total size stays
// within the byte budget; a destination past it is recounted into a
// full-width scratch row whenever it is drawn to. A row is a pure
// function of its destination, so every caching outcome draws the same
// paths with the same RNG consumption.
//
// Not safe for concurrent use.
type CountTable struct {
	g      *graph.Leveled
	budget int // bytes
	used   int
	rows   []countRow // by destination; nil until a row is kept

	bits []uint64 // bit rows, rowWords words each
	w1   []uint8
	w2   []uint16
	w4   []uint32
	w8   []uint64

	// scratch holds the full-width counts to scratchDst (NoNode: none);
	// cone lists the nodes where they are nonzero.
	scratch    []uint64
	scratchDst graph.NodeID
	cone       []graph.NodeID
}

// NewCountTable returns an empty table over g that keeps rows within
// MaxCountBytes.
func NewCountTable(g *graph.Leveled) *CountTable {
	return newCountTable(g, MaxCountBytes)
}

func newCountTable(g *graph.Leveled, budget int) *CountTable {
	return &CountTable{g: g, budget: budget, scratchDst: graph.NoNode}
}

// count fills the scratch with the counts to dst and returns their
// maximum. It walks only dst's backward cone — the nodes that reach it,
// listed in t.cone level by level from dst down — pushing each node's
// count to the nodes one level below it: every node of a level is final
// before the level below it is read. The previous cone is cleared
// first, so every entry outside the new one is 0.
func (t *CountTable) count(dst graph.NodeID) uint64 {
	g := t.g
	if t.scratch == nil {
		t.scratch = make([]uint64, g.NumNodes())
	}
	cnt := t.scratch
	for _, v := range t.cone {
		cnt[v] = 0
	}
	t.scratchDst = dst
	t.cone = append(t.cone[:0], dst)
	cnt[dst] = 1
	top := uint64(1)
	for i := 0; i < len(t.cone); i++ {
		u := t.cone[i]
		c := cnt[u]
		top = max(top, c)
		for _, e := range g.Node(u).Down {
			w := g.EndpointAt(e, graph.Backward)
			if cnt[w] == 0 {
				t.cone = append(t.cone, w)
			}
			cnt[w] = min(cnt[w]+c, satCap)
		}
	}
	return top
}

// widthFor is the narrowest row width that holds top.
func widthFor(top uint64) uint8 {
	switch {
	case top <= 1:
		return bitWidth
	case top <= 0xff:
		return 1
	case top <= 0xffff:
		return 2
	case top <= 0xffffffff:
		return 4
	}
	return 8
}

// rowWords is the length of a bit row in words.
func (t *CountTable) rowWords() int {
	return (t.g.NumNodes() + 63) / 64
}

// rowBytes is a row's budget charge at width w: its entries, or for a
// bit row its whole words.
func (t *CountTable) rowBytes(w uint8) int {
	if w == bitWidth {
		return 8 * t.rowWords()
	}
	return t.g.NumNodes() * int(w)
}

// keep stores the scratch counts to dst as a row of width w when the
// budget allows.
func (t *CountTable) keep(dst graph.NodeID, w uint8) {
	if t.used+t.rowBytes(w) > t.budget {
		return
	}
	if t.rows == nil {
		t.rows = make([]countRow, t.g.NumNodes())
	}
	var off int
	switch w {
	case bitWidth:
		off = len(t.bits)
		t.bits = append(t.bits, make([]uint64, t.rowWords())...)
		for _, v := range t.cone {
			t.bits[off+int(v>>6)] |= 1 << (v & 63)
		}
	case 1:
		off, t.w1 = appendRow(t.w1, t.scratch, t.cone)
	case 2:
		off, t.w2 = appendRow(t.w2, t.scratch, t.cone)
	case 4:
		off, t.w4 = appendRow(t.w4, t.scratch, t.cone)
	default:
		off, t.w8 = appendRow(t.w8, t.scratch, t.cone)
	}
	t.rows[dst] = countRow{off: int32(off), width: w}
	t.used += t.rowBytes(w)
}

// appendRow appends a zeroed row of len(cnt) entries to arena, copies
// the nonzero counts — those on the cone — into it, and returns the
// row's offset and the grown arena.
func appendRow[T countWord](arena []T, cnt []uint64, cone []graph.NodeID) (int, []T) {
	off := len(arena)
	arena = append(arena, make([]T, len(cnt))...)
	for _, v := range cone {
		arena[off+int(v)] = T(cnt[v])
	}
	return off, arena
}

// ensure makes dst's counts readable: a kept row, or else the scratch
// (counting dst once and keeping its row if the budget allows).
func (t *CountTable) ensure(dst graph.NodeID) {
	if t.rowOf(dst).width != 0 || t.scratchDst == dst {
		return
	}
	t.keep(dst, widthFor(t.count(dst)))
}

// at returns the saturated number of forward paths from v to dst.
func (t *CountTable) at(dst, v graph.NodeID) uint64 {
	t.ensure(dst)
	r := t.rowOf(dst)
	i := int(r.off) + int(v)
	switch r.width {
	case bitWidth:
		return t.bits[int(r.off)+int(v>>6)] >> (v & 63) & 1
	case 1:
		return uint64(t.w1[i])
	case 2:
		return uint64(t.w2[i])
	case 4:
		return uint64(t.w4[i])
	case 8:
		return t.w8[i]
	}
	return t.scratch[v]
}

func (t *CountTable) rowOf(dst graph.NodeID) countRow {
	if t.rows == nil {
		return countRow{}
	}
	return t.rows[dst]
}

// AppendPath appends a forward src→dst path drawn uniformly over the
// forward paths (exactly while counts stay below 2^40) to buf and
// returns the extended slice. The draw weights each hop by the count of
// forward paths through it: one rng.Int63n per hop, the same
// consumption whatever the row width or whether dst's row is kept.
func (t *CountTable) AppendPath(rng *rand.Rand, src, dst graph.NodeID, buf graph.Path) (graph.Path, error) {
	if src == dst {
		return nil, fmt.Errorf("paths: src == dst == %d; zero-length routing requests are not packets", src)
	}
	ls, ld := t.g.LevelOf(src), t.g.LevelOf(dst)
	if ld <= ls {
		return nil, fmt.Errorf("paths: dst level %d not above src level %d", ld, ls)
	}
	t.ensure(dst)
	r := t.rowOf(dst)
	nn := t.g.NumNodes()
	lo, hi := int(r.off), int(r.off)+nn
	switch r.width {
	case bitWidth:
		return drawBits(t.g, rng, src, dst, t.bits[lo:lo+t.rowWords()], buf)
	case 1:
		return drawPath(t.g, rng, src, dst, t.w1[lo:hi], buf)
	case 2:
		return drawPath(t.g, rng, src, dst, t.w2[lo:hi], buf)
	case 4:
		return drawPath(t.g, rng, src, dst, t.w4[lo:hi], buf)
	case 8:
		return drawPath(t.g, rng, src, dst, t.w8[lo:hi], buf)
	}
	return drawPath(t.g, rng, src, dst, t.scratch, buf)
}

// drawPath walks from src to dst, picking each next hop with
// probability proportional to its count in cnt. src and dst are on
// distinct levels, dst above src. A hop's total is the current node's
// own count — count sums each node's up-neighbours exactly — unless
// saturation clipped it, and only then is the Up list summed.
func drawPath[T countWord](g *graph.Leveled, rng *rand.Rand, src, dst graph.NodeID, cnt []T, buf graph.Path) (graph.Path, error) {
	if cnt[src] == 0 {
		return nil, fmt.Errorf("paths: node %d cannot reach %d forward", src, dst)
	}
	cur := src
	for cur != dst {
		up := g.Node(cur).Up
		total := int64(cnt[cur])
		if total >= satCap {
			total = 0
			for _, e := range up {
				total += int64(cnt[g.EndpointAt(e, graph.Forward)])
			}
		}
		pick := rng.Int63n(total)
		for _, e := range up {
			next := g.EndpointAt(e, graph.Forward)
			c := int64(cnt[next])
			if pick < c {
				buf = append(buf, e)
				cur = next
				break
			}
			pick -= c
		}
	}
	return buf, nil
}

// drawBits is drawPath on a bit row: every count is 0 or 1, so each
// hop's total is 1 and the draw takes the first up-neighbour whose bit
// is set. It still calls rng.Int63n(1) per hop, consuming the RNG as
// drawPath does; the hop's Up list is loaded before that call, as
// drawPath loads it, so the load overlaps the call.
func drawBits(g *graph.Leveled, rng *rand.Rand, src, dst graph.NodeID, bits []uint64, buf graph.Path) (graph.Path, error) {
	set := func(v graph.NodeID) bool { return bits[v>>6]>>(v&63)&1 != 0 }
	if !set(src) {
		return nil, fmt.Errorf("paths: node %d cannot reach %d forward", src, dst)
	}
	cur := src
	for cur != dst {
		up := g.Node(cur).Up
		rng.Int63n(1)
		for _, e := range up {
			if next := g.EndpointAt(e, graph.Forward); set(next) {
				buf = append(buf, e)
				cur = next
				break
			}
		}
	}
	return buf, nil
}
