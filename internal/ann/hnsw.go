// Package ann provides the in-process approximate-nearest-neighbor index
// behind the serving tier's k-NN retrieval: a Hierarchical Navigable Small
// World graph (Malkov & Yashunin) over the embeddings the inference engine
// produces. The serving workload is "embed this user, return its top-k
// similar items" under heavy concurrent traffic, so the index is built for
// exactly that shape:
//
//   - Search takes a read lock and walks an append-mostly node arena —
//     concurrent queries never block each other; mutations (insert, delete,
//     compact) take the write lock.
//   - The beam search keeps its candidate frontier as a min-heap and its ef
//     best results as a bounded max-heap, so each visited neighbour costs
//     O(log ef). Its visited marks and both heaps come from a per-index pool
//     of epoch-stamped scratch buffers: each concurrent search holds its
//     own, and a search allocates nothing that grows with the index.
//   - The graph is dynamic (the paper's setting): vertices appear, their
//     embeddings go stale as edges stream in, and the refresher re-embeds
//     them. Insert with an existing ID is therefore an upsert — the old node
//     is tombstoned and a fresh one linked in — and Delete tombstones.
//     Tombstoned nodes keep routing searches (removing their links would
//     sever the small-world graph) but are never returned; Compact rebuilds
//     the arena from the live set once tombstones pass a configurable share.
//   - Levels come from a deterministic generator seeded per (Config.Seed,
//     ID), not a shared RNG: the same ID always lands on the same level
//     regardless of insertion order or interleaving, so tests and the bench
//     gate see reproducible graphs.
//
// Distance is squared L2. The inference engine L2-normalizes embeddings, so
// ranking is equivalent to cosine similarity on its output.
package ann

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
)

// Config tunes an Index. Zero values take the documented defaults.
type Config struct {
	// Dim is the embedding dimensionality. Required.
	Dim int
	// M is the per-node link budget on upper levels (level 0 gets 2M).
	// Default 16.
	M int
	// EfConstruction is the candidate-list width while linking an insert.
	// Default 200.
	EfConstruction int
	// EfSearch is the candidate-list width during Search (raised to k when
	// k is larger). Default 64.
	EfSearch int
	// Seed drives the deterministic level generator.
	Seed int64
	// MaxTombstoneShare triggers an automatic Compact when tombstoned nodes
	// exceed this share of the arena. <= 0 means 0.5.
	MaxTombstoneShare float64
	// Metrics, if set, receives insert/delete/search/compaction counters.
	Metrics *Metrics
}

func (c Config) withDefaults() Config {
	if c.M <= 0 {
		c.M = 16
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = 200
	}
	if c.EfSearch <= 0 {
		c.EfSearch = 64
	}
	if c.MaxTombstoneShare <= 0 {
		c.MaxTombstoneShare = 0.5
	}
	return c
}

// Result is one search hit.
type Result struct {
	ID   uint64
	Dist float32 // squared L2 distance to the query
}

// node is one arena entry. links[l] holds the neighbor arena offsets at
// level l; a dead node keeps its links (routing) but is never returned.
type node struct {
	id    uint64
	vec   []float32
	links [][]uint32
	dead  bool
}

// Index is a thread-safe HNSW graph. The zero value is not usable — call
// New.
type Index struct {
	mu  sync.RWMutex
	cfg Config
	mL  float64

	nodes      []node
	byID       map[uint64]uint32
	entry      int32 // arena offset of the entry point, -1 when empty
	maxLevel   int
	tombstones int

	// idle holds scratch buffers between searches and inserts, at most
	// maxIdle of them: one per processor that can be searching at once.
	scratchMu sync.Mutex
	idle      []*searchScratch
	maxIdle   int
}

// New returns an empty index for cfg.Dim-dimensional vectors.
func New(cfg Config) (*Index, error) {
	cfg = cfg.withDefaults()
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("ann: Config.Dim must be positive, got %d", cfg.Dim)
	}
	return &Index{
		cfg:     cfg,
		mL:      1 / math.Log(float64(cfg.M)),
		byID:    make(map[uint64]uint32),
		entry:   -1,
		maxIdle: runtime.GOMAXPROCS(0),
	}, nil
}

// splitmix64 is the level generator's bit mixer: a full-avalanche hash so
// consecutive IDs land on independent levels.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// levelFor draws the node's level from the standard exponential distribution
// (floor(-ln(U) * mL)), with U derived from (seed, id) so the level is a
// pure function of the ID — insertion order never changes the graph shape.
func (ix *Index) levelFor(id uint64) int {
	u := splitmix64(uint64(ix.cfg.Seed) ^ splitmix64(id))
	// Top 53 bits to a float in (0, 1]; the +1 keeps u away from 0 so the
	// log stays finite.
	f := (float64(u>>11) + 1) / (1 << 53)
	l := int(-math.Log(f) * ix.mL)
	const maxLevel = 30
	if l > maxLevel {
		l = maxLevel
	}
	return l
}

// sqDist returns the squared L2 distance between two equal-length vectors.
// Four independent accumulators let the adds overlap instead of waiting on
// one serial dependency chain.
func sqDist(a, b []float32) float32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// cand is one (node, distance) pair in a search frontier.
type cand struct {
	ref  uint32
	dist float32
}

// byDist orders cands closest first. It compares with < and > directly:
// cmp.Compare's NaN handling is a measurable share of the sort.
func byDist(a, b cand) int {
	switch {
	case a.dist < b.dist:
		return -1
	case a.dist > b.dist:
		return 1
	}
	return 0
}

// candHeap is a min-heap by distance (closest first): the search frontier.
type candHeap []cand

func (h *candHeap) push(c cand) {
	*h = append(*h, c)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].dist <= (*h)[i].dist {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *candHeap) pop() cand {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && (*h)[l].dist < (*h)[small].dist {
			small = l
		}
		if r < n && (*h)[r].dist < (*h)[small].dist {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

// farHeap is a max-heap by distance (farthest first): the beam search's ef
// best results, whose root is the bound a new candidate must beat.
type farHeap []cand

func (h *farHeap) push(c cand) {
	*h = append(*h, c)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].dist >= (*h)[i].dist {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

// replaceTop overwrites the farthest element with c and restores the heap.
func (h farHeap) replaceTop(c cand) {
	h[0] = c
	n := len(h)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && h[l].dist > h[big].dist {
			big = l
		}
		if r < n && h[r].dist > h[big].dist {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// searchScratch is the working set of one search or insert: visited marks
// over the arena and the two heaps. visited[ref] == epoch marks ref as seen
// in the current pass, so a new pass only bumps epoch instead of clearing
// the marks. The Index pools these (getScratch, putScratch); a search holds
// one until it returns, so concurrent searches never share one.
type searchScratch struct {
	visited  []uint32
	epoch    uint32
	frontier candHeap
	best     farHeap
	prune    []cand // shrinkLinks' candidate list, separate from best
}

// begin starts a pass over an arena of n nodes.
func (s *searchScratch) begin(n int) {
	if n > len(s.visited) {
		// Grow geometrically: an index that inserts one node at a time must
		// not pay a fresh O(n) array per insert.
		s.visited = make([]uint32, max(n, 2*len(s.visited)))
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale marks could collide with new ones
		clear(s.visited)
		s.epoch = 1
	}
	s.frontier = s.frontier[:0]
	s.best = s.best[:0]
}

// greedyDescend walks one level greedily from ep toward q, returning the
// closest node found. Used on the levels above the search/insert target.
func (ix *Index) greedyDescend(q []float32, ep uint32, level int) uint32 {
	cur := ep
	curDist := sqDist(q, ix.nodes[cur].vec)
	for {
		improved := false
		for _, nb := range ix.nodes[cur].links[level] {
			if d := sqDist(q, ix.nodes[nb].vec); d < curDist {
				cur, curDist = nb, d
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

// getScratch takes an idle scratch buffer, or makes one.
func (ix *Index) getScratch() *searchScratch {
	ix.scratchMu.Lock()
	defer ix.scratchMu.Unlock()
	n := len(ix.idle)
	if n == 0 {
		return new(searchScratch)
	}
	s := ix.idle[n-1]
	ix.idle = ix.idle[:n-1]
	return s
}

// putScratch returns s to the idle list, dropping it when the list is full
// so a burst of concurrent searches does not pin its buffers for good.
func (ix *Index) putScratch(s *searchScratch) {
	ix.scratchMu.Lock()
	defer ix.scratchMu.Unlock()
	if len(ix.idle) < ix.maxIdle {
		ix.idle = append(ix.idle, s)
	}
}

// searchLayer is the best-first beam search of the paper (SEARCH-LAYER,
// Alg. 2): expand the closest unexpanded candidate until the frontier cannot
// improve the worst of the ef best found. Tombstoned nodes participate
// (routing) and are filtered by the caller. The returned slice is s's
// result heap, in heap order; it is valid until s's next pass.
func (ix *Index) searchLayer(s *searchScratch, q []float32, ep uint32, ef, level int) []cand {
	s.begin(len(ix.nodes))
	visited, epoch := s.visited, s.epoch
	d0 := sqDist(q, ix.nodes[ep].vec)
	s.frontier.push(cand{ep, d0})
	visited[ep] = epoch
	s.best.push(cand{ep, d0})
	for len(s.frontier) > 0 {
		c := s.frontier.pop()
		if c.dist > s.best[0].dist && len(s.best) >= ef {
			break
		}
		for _, nb := range ix.nodes[c.ref].links[level] {
			if visited[nb] == epoch {
				continue
			}
			visited[nb] = epoch
			d := sqDist(q, ix.nodes[nb].vec)
			if len(s.best) < ef {
				s.best.push(cand{nb, d})
				s.frontier.push(cand{nb, d})
			} else if d < s.best[0].dist {
				s.best.replaceTop(cand{nb, d})
				s.frontier.push(cand{nb, d})
			}
		}
	}
	return s.best
}

// selectNeighbors applies the paper's heuristic pruning: walk candidates
// closest-first and keep one only if it is closer to the query than to every
// neighbor already kept. This spreads links across clusters instead of
// packing them into the nearest one, which is what keeps recall high on
// clustered embeddings. cands is sorted in place; the kept refs are
// appended to out[:0].
func (ix *Index) selectNeighbors(cands []cand, m int, out []uint32) []uint32 {
	slices.SortFunc(cands, byDist)
	out = out[:0]
	for _, c := range cands {
		if len(out) >= m {
			break
		}
		keep := true
		for _, sel := range out {
			if sqDist(ix.nodes[c.ref].vec, ix.nodes[sel].vec) < c.dist {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, c.ref)
		}
	}
	// Backfill with the closest rejected candidates so nodes keep a full
	// link budget even in degenerate geometries.
	for _, c := range cands {
		if len(out) >= m {
			break
		}
		dup := false
		for _, sel := range out {
			if sel == c.ref {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c.ref)
		}
	}
	return out
}

// maxLinks is the per-level link cap: 2M on the ground level, M above.
func (ix *Index) maxLinks(level int) int {
	if level == 0 {
		return 2 * ix.cfg.M
	}
	return ix.cfg.M
}

// shrinkLinks re-prunes a node's level links to the cap after a new
// bidirectional edge pushed it over, rewriting them in place.
func (ix *Index) shrinkLinks(s *searchScratch, ref uint32, level int) {
	nd := &ix.nodes[ref]
	limit := ix.maxLinks(level)
	if len(nd.links[level]) <= limit {
		return
	}
	s.prune = s.prune[:0]
	for _, nb := range nd.links[level] {
		s.prune = append(s.prune, cand{nb, sqDist(nd.vec, ix.nodes[nb].vec)})
	}
	nd.links[level] = ix.selectNeighbors(s.prune, limit, nd.links[level])
}

// Insert adds (or upserts) id with the given vector. The vector is copied.
func (ix *Index) Insert(id uint64, vec []float32) error {
	if len(vec) != ix.cfg.Dim {
		return fmt.Errorf("ann: vector for id %d has dim %d, index expects %d", id, len(vec), ix.cfg.Dim)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if old, ok := ix.byID[id]; ok {
		ix.nodes[old].dead = true
		ix.tombstones++
	}
	ix.insertLocked(id, append([]float32(nil), vec...))
	ix.cfg.Metrics.incInsert()
	ix.maybeCompactLocked()
	return nil
}

// insertLocked links a fresh node into the graph. Caller holds the write
// lock and has already handled any previous node under the same ID.
func (ix *Index) insertLocked(id uint64, vec []float32) {
	level := ix.levelFor(id)
	ref := uint32(len(ix.nodes))
	links := make([][]uint32, level+1)
	ix.nodes = append(ix.nodes, node{id: id, vec: vec, links: links})
	ix.byID[id] = ref

	if ix.entry < 0 {
		ix.entry = int32(ref)
		ix.maxLevel = level
		return
	}
	ep := uint32(ix.entry)
	for lc := ix.maxLevel; lc > level; lc-- {
		ep = ix.greedyDescend(vec, ep, lc)
	}
	s := ix.getScratch()
	defer ix.putScratch(s)
	for lc := min(level, ix.maxLevel); lc >= 0; lc-- {
		cands := ix.searchLayer(s, vec, ep, ix.cfg.EfConstruction, lc)
		// One spare slot: a neighbour's back-link may push the list one
		// over the cap before shrinkLinks prunes it in place.
		neighbors := ix.selectNeighbors(cands, ix.cfg.M, make([]uint32, 0, ix.maxLinks(lc)+1))
		ix.nodes[ref].links[lc] = neighbors
		for _, nb := range neighbors {
			ix.nodes[nb].links[lc] = append(ix.nodes[nb].links[lc], ref)
			ix.shrinkLinks(s, nb, lc)
		}
		// Continue the descent from the best candidate of this level
		// (selectNeighbors sorted cands closest first).
		ep = cands[0].ref
	}
	if level > ix.maxLevel {
		ix.maxLevel = level
		ix.entry = int32(ref)
	}
}

// Delete tombstones id. Reports whether the ID was present.
func (ix *Index) Delete(id uint64) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ref, ok := ix.byID[id]
	if !ok {
		return false
	}
	delete(ix.byID, id)
	ix.nodes[ref].dead = true
	ix.tombstones++
	ix.cfg.Metrics.incDelete()
	ix.maybeCompactLocked()
	return true
}

// Contains reports whether id is live in the index.
func (ix *Index) Contains(id uint64) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, ok := ix.byID[id]
	return ok
}

// Search returns the k nearest live vectors to q, closest first.
func (ix *Index) Search(q []float32, k int) ([]Result, error) {
	if len(q) != ix.cfg.Dim {
		return nil, fmt.Errorf("ann: query has dim %d, index expects %d", len(q), ix.cfg.Dim)
	}
	if k <= 0 {
		return nil, nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ix.cfg.Metrics.incSearch()
	if ix.entry < 0 {
		return nil, nil
	}
	ep := uint32(ix.entry)
	for lc := ix.maxLevel; lc > 0; lc-- {
		ep = ix.greedyDescend(q, ep, lc)
	}
	ef := max(ix.cfg.EfSearch, k)
	// Tombstones route but never land in results, so widen the beam by the
	// dead share: a beam of ceil(ef / (1 - dead/n)) holds about ef live
	// nodes.
	if t := ix.tombstones; t > 0 {
		n, live := len(ix.nodes), len(ix.nodes)-t
		if live == 0 {
			return nil, nil
		}
		ef = (ef*n + live - 1) / live
	}
	s := ix.getScratch()
	defer ix.putScratch(s)
	best := ix.searchLayer(s, q, ep, ef, 0)
	slices.SortFunc(best, byDist)
	out := make([]Result, 0, k)
	for _, c := range best {
		if ix.nodes[c.ref].dead {
			continue
		}
		out = append(out, Result{ID: ix.nodes[c.ref].id, Dist: c.dist})
		if len(out) == k {
			break
		}
	}
	return out, nil
}

// Vector returns a copy of the live vector stored under id.
func (ix *Index) Vector(id uint64) ([]float32, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ref, ok := ix.byID[id]
	if !ok {
		return nil, false
	}
	return append([]float32(nil), ix.nodes[ref].vec...), true
}

// ForEach visits every live (id, vector) pair under the read lock until fn
// returns false. The vector slice is the index's own storage — callers must
// not retain or mutate it.
func (ix *Index) ForEach(fn func(id uint64, vec []float32) bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for i := range ix.nodes {
		if ix.nodes[i].dead {
			continue
		}
		if !fn(ix.nodes[i].id, ix.nodes[i].vec) {
			return
		}
	}
}

// Len returns the number of live vectors.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.byID)
}

// Tombstones returns the number of dead arena entries awaiting compaction.
func (ix *Index) Tombstones() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.tombstones
}

// Compact rebuilds the graph from the live set, dropping tombstones. O(n)
// memory and a full re-link; call it from maintenance paths (the index also
// self-compacts when tombstones exceed Config.MaxTombstoneShare).
func (ix *Index) Compact() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.compactLocked()
}

// maybeCompactLocked self-compacts once tombstones dominate the arena.
func (ix *Index) maybeCompactLocked() {
	if ix.tombstones == 0 {
		return
	}
	if float64(ix.tombstones) > ix.cfg.MaxTombstoneShare*float64(len(ix.nodes)) {
		ix.compactLocked()
	}
}

func (ix *Index) compactLocked() {
	if ix.tombstones == 0 {
		return
	}
	old := ix.nodes
	ix.nodes = make([]node, 0, len(ix.byID))
	ix.byID = make(map[uint64]uint32, len(ix.byID))
	ix.entry = -1
	ix.maxLevel = 0
	ix.tombstones = 0
	// Deterministic levels make the rebuild shape independent of the
	// original insertion interleaving.
	for i := range old {
		if old[i].dead {
			continue
		}
		ix.insertLocked(old[i].id, old[i].vec)
	}
	ix.cfg.Metrics.incCompaction()
}
