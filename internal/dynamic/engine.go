package dynamic

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"hotpotato/internal/graph"
	"hotpotato/internal/paths"
	"hotpotato/internal/persist"
)

// TenantTotals is the engine-side per-tenant ledger (see
// persist.TenantTotals for field semantics).
type TenantTotals = persist.TenantTotals

// pendingEntry is a submitted-but-not-yet-injected packet request from
// a service batch. Random entries draw src/dst/path from the engine RNG
// at injection time; src/dst entries draw only the path; explicit-path
// entries consume no randomness. Drawing late keeps the RNG stream a
// pure function of the injection sequence, which is what makes a
// snapshot-restored run replay byte-identically. The path backing, when
// non-nil, is a pooled buffer owned by the engine. On a unique-path
// network a drawn entry keeps no path: its endpoints determine it, and
// inject walks it off the reach matrix.
type pendingEntry struct {
	tenant int32 // interned; -1 anonymous
	random bool
	src    graph.NodeID // NoNode when random
	dst    graph.NodeID
	path   []graph.EdgeID // nil unless explicit or already drawn
}

// Engine is the open-system simulator as an explicit state machine:
// NewEngine seeds it, Step advances it one slotted step, Submit* feed
// it externally-requested packets (the routing-service path), Snapshot
// freezes it between steps and Restore thaws it in another process.
// Run wraps it for the classic closed-loop λ-arrival simulation.
//
// The hot path is structure-of-arrays, the design the batch engine
// proved out (internal/sim, PRs 6/7): packet state lives in flat
// parallel columns indexed by a free-listed packet slot, per-node
// occupancy is counts+offsets carved from one arena sized by the
// occ(v) <= deg(v) invariant, and the per-step request/grant/deflect
// bookkeeping is epoch-stamped scratch keyed by transmission slot
// (edge, direction) — no maps, no per-step allocation once warm. Paths
// sit in one arena, each slot owning a segment with prepend headroom so
// a deflection retreats in place instead of copy-prepending. A live path
// is held as the transmission slots it will take, not as edges, so a
// request reads its slot off the path head without working out the
// direction.
//
// An Engine is not safe for concurrent use; the service serializes all
// access through each topology's goroutine.
type Engine struct {
	g   *graph.Leveled
	cfg Config
	res *Result

	src *sm64
	rng *rand.Rand

	// Precomputed draws on src, each the value and stream use of
	// rng.Intn over the same bound: srcDraw picks an index into sources,
	// dstDraw[i] the rank of a destination among the Len nodes that
	// sources[i] reaches, and keepDraw[k] the reservoir tie-break among
	// k contenders for a slot (k is at most the node's degree).
	srcDraw  bound
	dstDraw  []bound
	keepDraw []bound

	// sources are the nodes with a forward-reachable destination, in ID
	// order. reach is the forward-reach bit matrix: Submit's accept test,
	// the random destination draw (the k-th node a source reaches) and,
	// on a unique-path network, the path walk at injection.
	sources []graph.NodeID
	reach   *paths.Reach

	// counts draws paths on a multi-path network. A destination's row of
	// forward-path counts is counted on the first draw to it and kept
	// while the rows fit paths.MaxCountBytes. nil on a unique-path
	// network, whose paths reach alone determines.
	counts *paths.CountTable

	// Packet columns, indexed by slot. A slot is recycled through free
	// when its packet delivers; its path segment stays with the slot so
	// a warm engine re-injects without allocating.
	pID      []int
	pTenant  []int32 // interned tenant id; -1 anonymous (λ-arrivals)
	pCur     []int32
	pDst     []int32
	pArrEdge []int32 // -1 = never moved
	pArrDir  []uint8
	pInject  []int
	pOff     []int32 // start of the slot's segment of path
	pCap     []int32 // length of that segment
	pHead    []int32 // index of the path head within path
	pLen     []int32 // remaining path length

	// path is the arena of every slot's segment, holding live paths as
	// transmission slots edge<<1 | direction. A path that outgrows its
	// segment moves to a larger one appended to the arena; heads are
	// indices, so growing the arena re-points nothing.
	path []int32

	free []int32 // recycled packet slots
	live []int32 // live slots in injection order

	// Per-node occupancy: atList[atOff[v]:atOff[v]+atN[v]] are the
	// slots parked at node v, in arrival order. The arena holds exactly
	// sum(deg(v)) = 2|E| entries: occupancy can never exceed degree —
	// after an injection occ(v) <= 1 (the source must be empty), and in
	// a step where any packet stays at v every healthy out-slot of v
	// carries a mover away while arrivals only come over healthy edges,
	// so arrivals <= departures and occ(v) never grows past deg(v).
	atOff    []int32 // node -> arena offset (prefix sums of degree), len N+1
	atN      []int32 // node -> current occupancy
	atList   []int32 // the arena
	occupied []int32 // nodes with atN > 0, in first-park order; rebuilt each commit

	// Per-transmission-slot scratch (slot si = edge<<1 | direction),
	// epoch-stamped so steps never clear it: a stamp != epoch means
	// "untouched this step".
	slotEpoch  []uint32
	slotCount  []int32 // request contenders this step
	slotWinner []int32 // surviving contender (reservoir selection)
	usedEpoch  []uint32
	winSlots   []int32 // slots that saw >= 1 request this step
	epoch      uint32

	// Per-packet-slot step scratch, same epoch discipline.
	grantEpoch []uint32
	grantSlot  []int32
	stallEpoch []uint32

	// Forward-memory bitsets (was a forward move committed on edge e
	// last step?) with dirty lists so clears cost O(moves), not O(E).
	prevFwd, curFwd           []uint64
	prevFwdDirty, curFwdDirty []int32

	// qBufPool recycles path backings of pending/retry entries.
	qBufPool [][]graph.EdgeID

	retryQ []retryEntry
	// retryDue is the earliest next over retryQ (math.MaxInt when it is
	// empty), derived as entries join and after each retry pass, never
	// serialized: Step skips the pass while it lies ahead.
	retryDue int
	pending  []pendingEntry
	nextID   int

	lat             latReservoir
	inFlightSum     float64
	inFlightSamples int

	// Window accumulators (the open partial window).
	wDelivered, wSpan, wStart               int
	wLatSum, wFlySum, wAvailSum             float64
	wPrevBlocked, wPrevStalls, wPrevDropped int

	step   int
	digest uint64

	// Tenant interning: the hot path carries int32 ids and indexes
	// tenantTT; the name-keyed map is maintained for the Tenants() API
	// and snapshots. All three share the same *TenantTotals values.
	tenantID    map[string]int32
	tenantNames []string
	tenantTT    []*TenantTotals
	tenants     map[string]*TenantTotals

	finalized bool
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// pathHeadroom is the slack reserved on each side of a freshly
// installed path so the first deflections prepend in place.
const pathHeadroom = 8

// fnvPow[k] is fnvPrime64^k: folding k zero bytes into an FNV-1a hash
// multiplies it by fnvPow[k], since h^0 = h.
var fnvPow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime64
	}
	return p
}()

// foldDigest folds one 64-bit word into the FNV-1a running digest, one
// byte at a time from the least significant. The words folded are
// small (packet ids, nodes, steps), so only the bytes up to the highest
// nonzero one go through the byte loop; the zero bytes above them are
// folded by one multiply.
func foldDigest(h, x uint64) uint64 {
	n := (bits.Len64(x) + 7) >> 3
	for i := 0; i < n; i++ {
		h = (h ^ x&0xff) * fnvPrime64
		x >>= 8
	}
	return h * fnvPow[8-n]
}

// NewEngine validates the configuration and builds a ready engine.
// Unlike Run, Steps may be 0: the engine then has no horizon and steps
// for as long as the caller keeps calling Step (the service mode).
func NewEngine(g *graph.Leveled, cfg Config) (*Engine, error) {
	if cfg.Lambda < 0 || cfg.Lambda > 1 {
		return nil, fmt.Errorf("dynamic: lambda must be in [0,1], got %g", cfg.Lambda)
	}
	if cfg.Steps < 0 {
		return nil, fmt.Errorf("dynamic: steps must be >= 0, got %d", cfg.Steps)
	}
	if cfg.Steps > 0 && cfg.Warmup >= cfg.Steps {
		return nil, fmt.Errorf("dynamic: warmup %d >= steps %d", cfg.Warmup, cfg.Steps)
	}
	if cfg.Warmup < 0 {
		return nil, fmt.Errorf("dynamic: negative warmup %d", cfg.Warmup)
	}
	if cfg.Retry.MaxAttempts < 0 || cfg.Retry.BaseDelay < 0 || cfg.Retry.MaxDelay < 0 {
		return nil, fmt.Errorf("dynamic: negative retry policy field: %+v", cfg.Retry)
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4096
	}
	e := &Engine{
		g:        g,
		cfg:      cfg,
		res:      &Result{Cfg: cfg},
		src:      newSM64(cfg.Seed),
		lat:      newLatReservoir(cfg.Seed),
		tenantID: make(map[string]int32, 8),
		tenants:  make(map[string]*TenantTotals, 8),
	}
	e.rng = rand.New(e.src)

	// One reach matrix; count rows only where paths are not unique. The
	// eligible sources are the nodes that reach any other.
	reach, err := paths.NewReach(g)
	if err != nil {
		return nil, fmt.Errorf("dynamic: %w", err)
	}
	e.reach = reach
	if !reach.Unique() {
		e.counts = paths.NewCountTable(g)
	}
	e.sources = make([]graph.NodeID, 0, g.NumNodes())
	e.dstDraw = make([]bound, 0, g.NumNodes())
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if n := reach.Len(v); n > 0 {
			e.sources = append(e.sources, v)
			e.dstDraw = append(e.dstDraw, newBound(n))
		}
	}
	if len(e.sources) == 0 {
		return nil, fmt.Errorf("dynamic: network has no eligible sources")
	}
	e.srcDraw = newBound(len(e.sources))
	e.keepDraw = make([]bound, g.MaxDegree()+1)
	for k := 1; k < len(e.keepDraw); k++ {
		e.keepDraw[k] = newBound(k)
	}

	nn, ne := g.NumNodes(), g.NumEdges()
	e.atOff = make([]int32, nn+1)
	for v := 0; v < nn; v++ {
		e.atOff[v+1] = e.atOff[v] + int32(g.Node(graph.NodeID(v)).Degree())
	}
	e.atN = make([]int32, nn)
	e.atList = make([]int32, e.atOff[nn])
	e.occupied = make([]int32, 0, nn)
	e.slotEpoch = make([]uint32, 2*ne)
	e.slotCount = make([]int32, 2*ne)
	e.slotWinner = make([]int32, 2*ne)
	e.usedEpoch = make([]uint32, 2*ne)
	e.winSlots = make([]int32, 0, 2*ne)
	words := (ne + 63) / 64
	e.prevFwd = make([]uint64, words)
	e.curFwd = make([]uint64, words)
	e.prevFwdDirty = make([]int32, 0, ne)
	e.curFwdDirty = make([]int32, 0, ne)

	// Preallocate every hard-bounded backing so a warm engine's Step
	// never allocates. Live packets are bounded by both the admission
	// cap and the occupancy invariant (sum over v of occ(v) <= deg(v)
	// is 2|E|), so the packet columns can be built at full size up
	// front, every slot pre-fitted with a path segment that holds a
	// maximal forward path (depth edges) plus deflection headroom.
	maxSlots := cfg.MaxInFlight
	if bound := 2 * ne; bound < maxSlots {
		maxSlots = bound
	}
	pathCap := g.Depth() + 2*pathHeadroom
	e.pID = make([]int, maxSlots)
	e.pTenant = make([]int32, maxSlots)
	e.pCur = make([]int32, maxSlots)
	e.pDst = make([]int32, maxSlots)
	e.pArrEdge = make([]int32, maxSlots)
	e.pArrDir = make([]uint8, maxSlots)
	e.pInject = make([]int, maxSlots)
	e.pOff = make([]int32, maxSlots)
	e.pCap = make([]int32, maxSlots)
	e.pHead = make([]int32, maxSlots)
	e.pLen = make([]int32, maxSlots)
	e.grantEpoch = make([]uint32, maxSlots)
	e.grantSlot = make([]int32, maxSlots)
	e.stallEpoch = make([]uint32, maxSlots)
	e.free = make([]int32, 0, maxSlots)
	e.path = make([]int32, maxSlots*pathCap)
	for s := maxSlots - 1; s >= 0; s-- {
		e.pArrEdge[s] = -1
		e.pTenant[s] = -1
		e.pOff[s], e.pCap[s] = int32(s*pathCap), int32(pathCap)
		e.free = append(e.free, int32(s)) // pops yield 0, 1, 2, ...
	}
	e.live = make([]int32, 0, maxSlots)

	// The queue backings and the entry-path pool have no hard bound
	// (retry depth is workload-dependent), so seed them generously:
	// exceeding these is a rare cold-path growth, not a steady leak.
	e.retryQ = make([]retryEntry, 0, 64)
	e.retryDue = math.MaxInt
	e.pending = make([]pendingEntry, 0, 64)
	e.qBufPool = make([][]graph.EdgeID, 0, 128)
	for i := 0; i < 64; i++ {
		e.qBufPool = append(e.qBufPool, make([]graph.EdgeID, 0, 16))
	}
	return e, nil
}

// internTenant maps a tenant name to its dense id, allocating the
// ledger on first sight. The anonymous tenant "" (λ-generated
// arrivals) is id -1 and has no ledger.
func (e *Engine) internTenant(name string) int32 {
	if name == "" {
		return -1
	}
	if id, ok := e.tenantID[name]; ok {
		return id
	}
	id := int32(len(e.tenantNames))
	tt := &TenantTotals{}
	e.tenantID[name] = id
	e.tenantNames = append(e.tenantNames, name)
	e.tenantTT = append(e.tenantTT, tt)
	e.tenants[name] = tt
	return id
}

// ledger returns the ledger of an interned tenant id (nil for the
// anonymous tenant) without touching a map.
func (e *Engine) ledger(id int32) *TenantTotals {
	if id < 0 {
		return nil
	}
	return e.tenantTT[id]
}

// tenantName is the inverse of internTenant, for snapshots.
func (e *Engine) tenantName(id int32) string {
	if id < 0 {
		return ""
	}
	return e.tenantNames[id]
}

// Submit enqueues one src→dst packet request for injection. The path is
// drawn (uniformly over forward paths) from the engine RNG when the
// packet is injected. Validation is immediate: an unreachable pair is
// rejected here, never mid-run.
func (e *Engine) Submit(tenant string, src, dst graph.NodeID) error {
	if int(src) < 0 || int(src) >= e.g.NumNodes() || int(dst) < 0 || int(dst) >= e.g.NumNodes() {
		return fmt.Errorf("dynamic: submit: node out of range")
	}
	if !e.reach.Contains(src, dst) {
		return fmt.Errorf("dynamic: submit: node %d cannot reach %d forward (or %d is not an eligible source)", src, dst, src)
	}
	e.offerPending(pendingEntry{tenant: e.internTenant(tenant), src: src, dst: dst})
	return nil
}

// SubmitPath enqueues a packet with a fully pre-computed forward path
// (the hop-constrained / oblivious-routing client shape). The path must
// be a contiguous forward edge sequence. The caller's slice is copied
// into a pooled buffer, never retained.
func (e *Engine) SubmitPath(tenant string, path []graph.EdgeID) error {
	if len(path) == 0 {
		return fmt.Errorf("dynamic: submit: empty path")
	}
	for i, ed := range path {
		if int(ed) < 0 || int(ed) >= e.g.NumEdges() {
			return fmt.Errorf("dynamic: submit: path edge %d out of range", i)
		}
		if i > 0 && e.g.Edge(path[i]).From != e.g.Edge(path[i-1]).To {
			return fmt.Errorf("dynamic: submit: path not contiguous at hop %d", i)
		}
	}
	src := e.g.Edge(path[0]).From
	dst := e.g.Edge(path[len(path)-1]).To
	e.offerPending(pendingEntry{
		tenant: e.internTenant(tenant), src: src, dst: dst,
		path: append(e.borrowQBuf(), path...),
	})
	return nil
}

// SubmitRandom enqueues n packets whose src/dst pairs and paths are
// drawn from the engine RNG at injection time — the deterministic
// load-generation shape (the whole run is a pure function of the
// submission sequence and the seed).
func (e *Engine) SubmitRandom(tenant string, n int) error {
	if n < 1 {
		return fmt.Errorf("dynamic: submit: random count %d < 1", n)
	}
	id := e.internTenant(tenant)
	e.offer(id, n)
	at := len(e.pending)
	e.pending = slices.Grow(e.pending, n)[:at+n]
	for i := range e.pending[at:] {
		e.pending[at+i] = pendingEntry{tenant: id, random: true, src: graph.NoNode, dst: graph.NoNode}
	}
	return nil
}

func (e *Engine) offerPending(en pendingEntry) {
	e.offer(en.tenant, 1)
	e.pending = append(e.pending, en)
}

// offer counts n submitted packets against the engine and the tenant.
func (e *Engine) offer(tenant int32, n int) {
	e.res.Offered += n
	if tt := e.ledger(tenant); tt != nil {
		tt.Submitted += n
	}
}

// drawPath samples a forward src→dst path — the path and RNG
// consumption of paths.RandomForwardPath, minus its counting pass. On a
// multi-path network it draws through a count row into a pooled buffer,
// one draw per hop. On a unique-path network every hop's choice is a
// draw among one, which takes exactly one value per hop, one per level
// between the endpoints: the stream skips those values and drawPath
// returns nil, for inject to walk the path off the reach matrix.
func (e *Engine) drawPath(src, dst graph.NodeID) ([]graph.EdgeID, error) {
	if e.counts == nil {
		e.src.skip(e.g.LevelOf(dst) - e.g.LevelOf(src))
		return nil, nil
	}
	return e.counts.AppendPath(e.rng, src, dst, e.borrowQBuf())
}

// borrowQBuf takes a pooled path backing for a pending/retry entry.
func (e *Engine) borrowQBuf() []graph.EdgeID {
	if n := len(e.qBufPool); n > 0 {
		b := e.qBufPool[n-1]
		e.qBufPool = e.qBufPool[:n-1]
		return b[:0]
	}
	return make([]graph.EdgeID, 0, 16)
}

// returnQBuf puts an entry's path backing back in the pool.
func (e *Engine) returnQBuf(b []graph.EdgeID) {
	if cap(b) > 0 {
		e.qBufPool = append(e.qBufPool, b)
	}
}

// allocSlot takes a packet slot from the free list, growing the columns
// when none are available. Recycled slots keep their path segment; a
// new slot gets one from its first pathWindow.
func (e *Engine) allocSlot() int32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		return s
	}
	s := int32(len(e.pID))
	e.pID = append(e.pID, 0)
	e.pTenant = append(e.pTenant, -1)
	e.pCur = append(e.pCur, 0)
	e.pDst = append(e.pDst, 0)
	e.pArrEdge = append(e.pArrEdge, -1)
	e.pArrDir = append(e.pArrDir, 0)
	e.pInject = append(e.pInject, 0)
	e.pOff = append(e.pOff, 0)
	e.pCap = append(e.pCap, 0)
	e.pHead = append(e.pHead, 0)
	e.pLen = append(e.pLen, 0)
	e.grantEpoch = append(e.grantEpoch, 0)
	e.grantSlot = append(e.grantSlot, 0)
	e.stallEpoch = append(e.stallEpoch, 0)
	return s
}

// pathWindow sets packet slot s's path to n slots, centered in its
// segment so both prepends (deflection retreats) and head pops advance
// in place, and returns the window for the caller to fill. A segment
// only ever grows, so a warm slot installs without allocating.
func (e *Engine) pathWindow(s int32, n int) []int32 {
	if need := int32(n + 2*pathHeadroom); e.pCap[s] < need {
		e.newSegment(s, need)
	}
	head := e.pOff[s] + (e.pCap[s]-int32(n))/2
	e.pHead[s] = head
	e.pLen[s] = int32(n)
	return e.path[head : head+int32(n)]
}

// newSegment gives packet slot s a fresh segment of c entries at the
// end of the arena. The old one is left unused.
func (e *Engine) newSegment(s int32, c int32) {
	e.pOff[s], e.pCap[s] = int32(len(e.path)), c
	e.path = append(e.path, make([]int32, c)...)
}

// setPath installs a forward path into packet slot s: each edge is
// taken in the forward direction.
func (e *Engine) setPath(s int32, path []graph.EdgeID) {
	w := e.pathWindow(s, len(path))
	for i, ed := range path {
		w[i] = int32(ed)<<1 | int32(graph.Forward)
	}
}

// prependSlot pushes one transmission slot in front of packet slot s's
// path head: the in-place replacement for the old copy-prepend on every
// deflection. When the left headroom is exhausted it recenters within
// the segment (pops free space on the left over time) or moves the path
// to a segment twice as large.
func (e *Engine) prependSlot(s int32, si int32) {
	if off := e.pOff[s]; e.pHead[s] == off {
		c, n := e.pCap[s], e.pLen[s]
		if n < c {
			shift := (c - n + 1) / 2
			copy(e.path[off+shift:off+shift+n], e.path[off:off+n])
			e.pHead[s] = off + shift
		} else {
			e.newSegment(s, 2*c+2*pathHeadroom)
			head := e.pOff[s] + (e.pCap[s]-n)/2
			copy(e.path[head:head+n], e.path[off:off+n])
			e.pHead[s] = head
		}
	}
	e.pHead[s]--
	e.path[e.pHead[s]] = si
	e.pLen[s]++
}

// parkAt appends slot s to node v's occupancy list. Overflow past
// deg(v) is impossible by the occupancy invariant (see the atOff field
// comment); it panics rather than corrupt a neighbor's list.
func (e *Engine) parkAt(v graph.NodeID, s int32) {
	n := e.atN[v]
	off := e.atOff[v]
	if off+n >= e.atOff[v+1] {
		panic(fmt.Sprintf("dynamic: node %d occupancy exceeds degree %d", v, e.atOff[v+1]-off))
	}
	if n == 0 {
		e.occupied = append(e.occupied, int32(v))
	}
	e.atList[off+n] = s
	e.atN[v] = n + 1
}

// inject admits a packet at src if the source is free and the in-flight
// cap allows, returning success. The path is copied into the slot's
// segment, or, when nil on a unique-path network, walked straight into
// it; the caller keeps ownership of the argument.
func (e *Engine) inject(t int, tenant int32, src, dst graph.NodeID, path []graph.EdgeID) bool {
	if e.atN[src] > 0 || len(e.live) >= e.cfg.MaxInFlight {
		if len(e.live) >= e.cfg.MaxInFlight {
			e.res.Saturated = true
		}
		return false
	}
	s := e.allocSlot()
	e.pID[s] = e.nextID
	e.nextID++
	e.pTenant[s] = tenant
	e.pCur[s] = int32(src)
	e.pDst[s] = int32(dst)
	e.pArrEdge[s] = -1
	e.pArrDir[s] = 0
	e.pInject[s] = t
	if path == nil {
		e.reach.WalkSlots(src, dst, e.pathWindow(s, e.g.LevelOf(dst)-e.g.LevelOf(src)))
	} else {
		e.setPath(s, path)
	}
	e.parkAt(src, s)
	e.live = append(e.live, s)
	e.res.Admitted++
	if tt := e.ledger(tenant); tt != nil {
		tt.Admitted++
	}
	return true
}

// closeWindow flushes the open window (no-op when windowing is off or
// the window is empty). Every mean is guarded against its empty case,
// so no exported WindowStats field can be NaN or Inf — expvar cannot
// encode either, and a single poisoned window used to break the whole
// /debug/vars endpoint.
func (e *Engine) closeWindow() {
	if e.cfg.Window <= 0 || e.wSpan == 0 {
		return
	}
	ws := WindowStats{
		Start:        e.wStart,
		Delivered:    e.wDelivered,
		MeanInFlight: safeMean(e.wFlySum, e.wSpan),
		FaultBlocked: e.res.FaultBlocked - e.wPrevBlocked,
		FaultStalls:  e.res.FaultStalls - e.wPrevStalls,
		Dropped:      e.res.Dropped - e.wPrevDropped,
		Availability: safeMean(e.wAvailSum, e.wSpan),
		MeanLatency:  safeMean(e.wLatSum, e.wDelivered),
	}
	e.res.Windows = recentWindows(append(e.res.Windows, ws), e.cfg.Steps)
	if e.cfg.OnWindow != nil {
		e.cfg.OnWindow(ws, e.res)
	}
	e.wDelivered, e.wSpan = 0, 0
	e.wLatSum, e.wFlySum, e.wAvailSum = 0, 0, 0
	e.wPrevBlocked, e.wPrevStalls, e.wPrevDropped = e.res.FaultBlocked, e.res.FaultStalls, e.res.Dropped
	e.wStart = e.res.ExecutedSteps
}

// maxWindows bounds Result.Windows of a run without a horizon
// (Config.Steps == 0): it keeps only its most recent maxWindows windows,
// so a long-running service's heap and snapshots stop growing with its
// uptime. A run with a horizon keeps all of its Steps/Window windows.
const maxWindows = latReservoirCap

// recentWindows drops the windows of a horizon-free run older than its
// most recent maxWindows, in memory or on the wire. It reslices rather
// than shifting in place, so a Result copied earlier (Peek) keeps the
// windows it was given.
func recentWindows[W WindowStats | persist.WindowState](w []W, steps int) []W {
	if steps == 0 && len(w) > maxWindows {
		return w[len(w)-maxWindows:]
	}
	return w
}

// safeMean is sum/n with the empty case pinned to 0 — the NaN guard for
// every exported windowed mean.
func safeMean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// FlushWindow closes the open partial window immediately (fires
// OnWindow). The graceful-drain hook: a terminating service flushes its
// last window into the live export before snapshotting.
func (e *Engine) FlushWindow() { e.closeWindow() }

func (e *Engine) down(ed graph.EdgeID, t int) bool {
	return e.cfg.Faults != nil && e.cfg.Faults(ed, t)
}

// HasWork reports whether anything is in flight or queued — the
// service's idle test (λ-driven engines always have work until their
// horizon ends).
func (e *Engine) HasWork() bool {
	return len(e.live) > 0 || len(e.pending) > 0 || len(e.retryQ) > 0
}

// StepCount returns the number of executed steps.
func (e *Engine) StepCount() int { return e.step }

// Live returns the number of in-flight packets.
func (e *Engine) Live() int { return len(e.live) }

// QueueDepth returns pending + retrying packets not yet in flight.
func (e *Engine) QueueDepth() int { return len(e.pending) + len(e.retryQ) }

// Digest returns the running trace digest: an FNV-1a hash folded over
// every delivery (id, destination, inject step, deliver step). Two runs
// with the same digest delivered the same packets at the same times —
// the equality the kill-and-restore contract is asserted with.
func (e *Engine) Digest() uint64 { return e.digest }

// Tenants returns the per-tenant ledgers (live map of live values; the
// caller must not mutate and must copy across steps).
func (e *Engine) Tenants() map[string]*TenantTotals { return e.tenants }

// Peek returns the result accumulated so far without finalizing. The
// Latency summary and AvgInFlight are only computed by Finalize.
func (e *Engine) Peek() Result { return *e.res }

// queueRetry appends en to the retry queue, keeping retryDue.
func (e *Engine) queueRetry(en retryEntry) {
	e.retryQ = append(e.retryQ, en)
	e.retryDue = min(e.retryDue, en.next)
}

// Step advances the simulation one slotted step: retries, pending
// injections, λ-arrivals, request arbitration, deflections, commit,
// window bookkeeping. It is an error to step a finalized engine.
func (e *Engine) Step() error {
	if e.finalized {
		return fmt.Errorf("dynamic: Step after Finalize")
	}
	t := e.step
	cfg := &e.cfg
	res := e.res

	// Retry admissions first: waiting packets get the source slot ahead
	// of fresh arrivals (no new packet starves a backlogged one). The
	// queue is FIFO and consumes no randomness. Entries are read in
	// place and moved down only once an earlier one has left the queue;
	// the pass is skipped while no entry is due.
	if len(e.retryQ) > 0 && e.retryDue <= t {
		q, n, due := e.retryQ, 0, math.MaxInt
		for i := range q {
			en := &q[i]
			if en.next <= t {
				res.Retried++
				if tt := e.ledger(en.tenant); tt != nil {
					tt.Retried++
				}
				if e.inject(t, en.tenant, en.src, en.dst, en.path) {
					e.returnQBuf(en.path)
					continue
				}
				en.attempts++
				if en.attempts >= cfg.Retry.MaxAttempts {
					e.dropPacket(en.tenant)
					e.returnQBuf(en.path)
					continue
				}
				en.next = t + cfg.Retry.backoff(en.attempts)
			}
			due = min(due, en.next)
			if n != i {
				q[n] = *en
			}
			n++
		}
		e.retryQ, e.retryDue = q[:n], due
	}

	// Pending service submissions: FIFO, one injection attempt each;
	// blocked entries fall into the retry queue (or are dropped when
	// retry is disabled — unlike λ-arrivals, a submitted packet is
	// always accounted for as admitted or dropped).
	if len(e.pending) > 0 {
		keep := e.pending[:0]
		for i := range e.pending {
			en := e.pending[i]
			if en.random {
				j := e.src.below(&e.srcDraw)
				en.src = e.sources[j]
				en.dst = e.reach.Nth(en.src, e.src.below(&e.dstDraw[j]))
			}
			if en.path == nil {
				path, err := e.drawPath(en.src, en.dst)
				if err != nil {
					return fmt.Errorf("dynamic: step %d: pending path draw: %w", t, err)
				}
				en.path = path
			}
			if e.inject(t, en.tenant, en.src, en.dst, en.path) {
				e.returnQBuf(en.path)
				continue
			}
			if cfg.Retry.enabled() {
				e.queueRetry(retryEntry{
					tenant: en.tenant, src: en.src, dst: en.dst, path: en.path,
					attempts: 1, next: t + cfg.Retry.backoff(1),
				})
			} else {
				e.dropPacket(en.tenant)
				e.returnQBuf(en.path)
			}
		}
		e.pending = keep
	}

	// λ-arrivals: each source draws; blocked arrivals enter the retry
	// queue (or are lost when retry is disabled). Skipped entirely at
	// λ=0 (the pure service mode) so no randomness is consumed.
	if cfg.Lambda > 0 {
		for j, s := range e.sources {
			if e.rng.Float64() >= cfg.Lambda {
				continue
			}
			res.Offered++
			dst := e.reach.Nth(s, e.src.below(&e.dstDraw[j]))
			path, err := e.drawPath(s, dst)
			if err != nil {
				return err
			}
			if e.inject(t, -1, s, dst, path) {
				e.returnQBuf(path)
				continue
			}
			if cfg.Retry.enabled() {
				e.queueRetry(retryEntry{
					tenant: -1, src: s, dst: dst, path: path,
					attempts: 1, next: t + cfg.Retry.backoff(1),
				})
			} else {
				e.returnQBuf(path)
			}
		}
	}

	// Requests: every live packet chases its head; equal-priority
	// conflicts resolve by reservoir selection in live order: the k-th
	// contender (k >= 2) replaces the incumbent when a draw in [0, k) is
	// 0, so each of k contenders wins with probability exactly 1/k (a
	// coin per contender would let the last one win half the time
	// whatever k). Uniformity is chi-square tested in
	// arbitration_test.go. A request for a downed edge is fault-blocked
	// and falls through to the deflection pass.
	e.epoch++
	ep := e.epoch
	e.winSlots = e.winSlots[:0]
	for _, s := range e.live {
		si := e.path[e.pHead[s]]
		if e.down(graph.EdgeID(si>>1), t) {
			res.FaultBlocked++
			continue
		}
		k := int32(1)
		if e.slotEpoch[si] == ep {
			k = e.slotCount[si] + 1
		} else {
			e.slotEpoch[si] = ep
			e.winSlots = append(e.winSlots, si)
		}
		e.slotCount[si] = k
		if k == 1 || e.src.below(&e.keepDraw[k]) == 0 {
			e.slotWinner[si] = s
		}
	}
	for _, si := range e.winSlots {
		e.usedEpoch[si] = ep
		w := e.slotWinner[si]
		e.grantEpoch[w] = ep
		e.grantSlot[w] = si
	}

	// Deflect losers per node: arrival reversal first, then
	// safe-backward (an edge that carried a forward move last step), then
	// any backward, then any forward. Nodes are visited in occupied's
	// first-park order, unsorted: every slot a loser at v can claim
	// leaves v, so slots are partitioned by node, and the pass draws no
	// randomness. The visiting order therefore cannot change a grant,
	// deflection, stall, RNG draw, digest or snapshot byte; only which
	// node the "over capacity" invariant error names may differ.
	for _, vi := range e.occupied {
		v := graph.NodeID(vi)
		lst := e.atList[e.atOff[v] : e.atOff[v]+e.atN[v]]
		node := e.g.Node(v)
		for _, s := range lst {
			if e.grantEpoch[s] == ep {
				continue
			}
			assigned := false
			if ae := e.pArrEdge[s]; ae != -1 {
				rd := graph.Direction(e.pArrDir[s]).Reverse()
				si := ae<<1 | int32(rd)
				if e.usedEpoch[si] != ep && !e.down(graph.EdgeID(ae), t) {
					e.usedEpoch[si], e.grantEpoch[s], e.grantSlot[s] = ep, ep, si
					assigned = true
				}
			}
			if !assigned {
				for _, ed := range node.Down {
					si := int32(ed)<<1 | int32(graph.Backward)
					if e.usedEpoch[si] != ep && !e.down(ed, t) &&
						e.prevFwd[ed>>6]&(1<<(uint(ed)&63)) != 0 {
						e.usedEpoch[si], e.grantEpoch[s], e.grantSlot[s] = ep, ep, si
						assigned = true
						break
					}
				}
			}
			if !assigned {
				for _, ed := range node.Down {
					si := int32(ed)<<1 | int32(graph.Backward)
					if e.usedEpoch[si] != ep && !e.down(ed, t) {
						e.usedEpoch[si], e.grantEpoch[s], e.grantSlot[s] = ep, ep, si
						assigned = true
						break
					}
				}
			}
			if !assigned {
				for _, ed := range node.Up {
					si := int32(ed)<<1 | int32(graph.Forward)
					if e.usedEpoch[si] != ep && !e.down(ed, t) {
						e.usedEpoch[si], e.grantEpoch[s], e.grantSlot[s] = ep, ep, si
						assigned = true
						break
					}
				}
			}
			if !assigned {
				if cfg.Faults != nil {
					// An outage consumed the node's slack: hold in place
					// for one step, the bufferless model's local escape
					// hatch under faults.
					e.stallEpoch[s] = ep
					res.FaultStalls++
					continue
				}
				return fmt.Errorf("dynamic: step %d: node %d over capacity", t, v)
			}
			res.Deflections++
		}
	}

	// Commit: clear occupancy (O(occupied), not O(N)) and re-park every
	// survivor in live order — the same arrival order the map engine's
	// append-per-node sweep produced.
	survivors := e.live[:0]
	for _, vi := range e.occupied {
		e.atN[vi] = 0
	}
	e.occupied = e.occupied[:0]
	for _, s := range e.live {
		if e.stallEpoch[s] == ep {
			survivors = append(survivors, s)
			e.parkAt(graph.NodeID(e.pCur[s]), s)
			continue
		}
		si := e.grantSlot[s]
		ed := graph.EdgeID(si >> 1)
		d := graph.Direction(si & 1)
		dest := e.g.EndpointAt(ed, d)
		// A move along the path head pops it; any other move is a
		// deflection, retreated by the same edge the other way.
		if e.pLen[s] > 0 && e.path[e.pHead[s]] == si {
			e.pHead[s]++
			e.pLen[s]--
		} else {
			e.prependSlot(s, si^1)
		}
		e.pCur[s] = int32(dest)
		e.pArrEdge[s] = int32(ed)
		e.pArrDir[s] = uint8(d)
		if d == graph.Forward {
			e.curFwd[ed>>6] |= 1 << (uint(ed) & 63)
			e.curFwdDirty = append(e.curFwdDirty, int32(ed))
		}
		if dest == graph.NodeID(e.pDst[s]) {
			res.Delivered++
			if tt := e.ledger(e.pTenant[s]); tt != nil {
				tt.Delivered++
			}
			e.digest = foldDigest(e.digest, uint64(e.pID[s]))
			e.digest = foldDigest(e.digest, uint64(e.pDst[s]))
			e.digest = foldDigest(e.digest, uint64(e.pInject[s]))
			e.digest = foldDigest(e.digest, uint64(t+1))
			if e.pInject[s] >= cfg.Warmup {
				e.lat.add(float64(t + 1 - e.pInject[s]))
			}
			if cfg.Window > 0 {
				e.wDelivered++
				e.wLatSum += float64(t + 1 - e.pInject[s])
			}
			e.free = append(e.free, s)
			continue
		}
		survivors = append(survivors, s)
		e.parkAt(dest, s)
	}
	e.live = survivors
	// Swap the forward-memory bitsets and wipe the stale side through
	// its dirty list.
	e.prevFwd, e.curFwd = e.curFwd, e.prevFwd
	e.prevFwdDirty, e.curFwdDirty = e.curFwdDirty, e.prevFwdDirty
	for _, ed := range e.curFwdDirty {
		e.curFwd[ed>>6] &^= 1 << (uint(ed) & 63)
	}
	e.curFwdDirty = e.curFwdDirty[:0]
	e.step = t + 1
	res.ExecutedSteps = e.step

	if t >= cfg.Warmup {
		e.inFlightSum += float64(len(e.live))
		e.inFlightSamples++
	}
	if len(e.live) > res.PeakInFlight {
		res.PeakInFlight = len(e.live)
	}
	if cfg.Window > 0 {
		e.wFlySum += float64(len(e.live))
		if cfg.Faults == nil {
			e.wAvailSum++
		} else {
			downEdges := 0
			for ed := 0; ed < e.g.NumEdges(); ed++ {
				if cfg.Faults(graph.EdgeID(ed), t) {
					downEdges++
				}
			}
			e.wAvailSum += 1 - float64(downEdges)/float64(e.g.NumEdges())
		}
		e.wSpan++
		if (t+1)%cfg.Window == 0 || (cfg.Steps > 0 && t == cfg.Steps-1) {
			e.closeWindow()
		}
	}
	return nil
}

// dropPacket records an abandoned packet against the engine and the
// tenant ledger.
func (e *Engine) dropPacket(tenant int32) {
	e.res.Dropped++
	if tt := e.ledger(tenant); tt != nil {
		tt.Dropped++
	}
}

// Finalize flushes the trailing partial window, computes the latency
// summary and time-averages, stamps the trace digest, and returns the
// result. Idempotent; the engine cannot step afterwards.
func (e *Engine) Finalize() *Result {
	if !e.finalized {
		e.closeWindow()
		e.res.Latency = e.lat.summary()
		e.res.AvgInFlight = safeMean(e.inFlightSum, e.inFlightSamples)
		e.res.TraceDigest = e.digest
		e.finalized = true
	}
	return e.res
}
