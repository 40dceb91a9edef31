package ann

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// refSearchLayer is the linear-scan form of searchLayer: the result set is
// a plain slice and its farthest element is found by scanning it. It is the
// reference the heap version is checked against.
func (ix *Index) refSearchLayer(q []float32, ep uint32, ef, level int) []cand {
	farthest := func(set []cand) int {
		fi := 0
		for i := 1; i < len(set); i++ {
			if set[i].dist > set[fi].dist {
				fi = i
			}
		}
		return fi
	}
	visited := make([]bool, len(ix.nodes))
	var frontier candHeap
	d0 := sqDist(q, ix.nodes[ep].vec)
	frontier.push(cand{ep, d0})
	visited[ep] = true
	best := []cand{{ep, d0}}
	for len(frontier) > 0 {
		c := frontier.pop()
		if c.dist > best[farthest(best)].dist && len(best) >= ef {
			break
		}
		for _, nb := range ix.nodes[c.ref].links[level] {
			if visited[nb] {
				continue
			}
			visited[nb] = true
			d := sqDist(q, ix.nodes[nb].vec)
			if len(best) < ef {
				best = append(best, cand{nb, d})
				frontier.push(cand{nb, d})
			} else if fi := farthest(best); d < best[fi].dist {
				best[fi] = cand{nb, d}
				frontier.push(cand{nb, d})
			}
		}
	}
	return best
}

// byDistRef orders by distance, then by arena offset, so equal sets sort
// identically even with distance ties.
func byDistRef(a, b cand) int {
	if c := byDist(a, b); c != 0 {
		return c
	}
	return cmp.Compare(a.ref, b.ref)
}

func buildIndex(tb testing.TB, vecs [][]float32, cfg Config) *Index {
	tb.Helper()
	ix, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i, v := range vecs {
		if err := ix.Insert(uint64(i), v); err != nil {
			tb.Fatal(err)
		}
	}
	return ix
}

// TestHeapSearchMatchesLinearScan checks that the heap-based beam search
// returns exactly the (node, distance) set of the linear-scan reference, on
// the ground level and on the level above it, at the search and the
// construction beam widths.
func TestHeapSearchMatchesLinearScan(t *testing.T) {
	const (
		n   = 2000
		dim = 32
	)
	vecs := clusteredVecs(n, dim, 16, 41)
	ix := buildIndex(t, vecs, Config{Dim: dim, Seed: 41})
	rng := rand.New(rand.NewSource(42))
	s := new(searchScratch)
	for qi := 0; qi < 200; qi++ {
		q := make([]float32, dim)
		base := vecs[rng.Intn(n)]
		for j := range q {
			q[j] = base[j] + float32(rng.NormFloat64()*0.5)
		}
		ep := uint32(ix.entry)
		for lc := ix.maxLevel; lc > 1; lc-- {
			ep = ix.greedyDescend(q, ep, lc)
		}
		for level := 1; level >= 0; level-- {
			if level == 0 {
				ep = ix.greedyDescend(q, ep, 1)
			}
			for _, ef := range []int{ix.cfg.EfSearch, ix.cfg.EfConstruction} {
				want := ix.refSearchLayer(q, ep, ef, level)
				got := slices.Clone(ix.searchLayer(s, q, ep, ef, level))
				slices.SortFunc(want, byDistRef)
				slices.SortFunc(got, byDistRef)
				if !slices.Equal(got, want) {
					t.Fatalf("query %d level %d ef %d: heap search found %d nodes, reference %d; sets differ", qi, level, ef, len(got), len(want))
				}
			}
		}
	}
}

// TestSearchAllocsIndependentOfSize pins that a search allocates a small
// constant number of objects, the same at 1k and 10k vectors: the visited
// marks and heaps come from the index's scratch pool.
func TestSearchAllocsIndependentOfSize(t *testing.T) {
	const dim = 32
	vecs := clusteredVecs(10_000, dim, 16, 5)
	var allocs []float64
	for _, n := range []int{1_000, 10_000} {
		// A narrow construction beam keeps the 10k build quick; Search's
		// allocations do not depend on it.
		ix := buildIndex(t, vecs[:n], Config{Dim: dim, Seed: 5, EfConstruction: 16})
		q := vecs[n/2]
		allocs = append(allocs, testing.AllocsPerRun(200, func() {
			if _, err := ix.Search(q, 11); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != allocs[1] || allocs[1] > 2 {
		t.Fatalf("Search allocs/op = %v at 1k and %v at 10k vectors, want one small constant", allocs[0], allocs[1])
	}
}

// TestTombstoneRecall checks that the dead-share beam widening keeps recall
// on the survivors with up to 45% of the vectors deleted and no compaction.
func TestTombstoneRecall(t *testing.T) {
	const (
		n    = 2000
		dim  = 32
		k    = 10
		seed = 7
	)
	vecs := clusteredVecs(n, dim, 16, seed)
	queries := conformanceQueries(vecs, seed)
	m := &Metrics{}
	ix := buildIndex(t, vecs, Config{Dim: dim, Seed: seed, Metrics: m})
	corpus := make(map[uint64][]float32, n)
	for i, v := range vecs {
		corpus[uint64(i)] = v
	}
	// Deletes accumulate: each share extends the previous one's prefix of
	// the same permutation.
	order := rand.New(rand.NewSource(seed + 2)).Perm(n)
	deleted := 0
	for _, share := range []float64{0.01, 0.05, 0.20, 0.45} {
		for ; deleted < int(share*n); deleted++ {
			ix.Delete(uint64(order[deleted]))
			delete(corpus, uint64(order[deleted]))
		}
		if c := m.Compactions.Load(); c != 0 {
			t.Fatalf("%.0f%% deleted: %d compactions, want none", share*100, c)
		}
		if r := recallAt(t, ix, corpus, queries, k); r < 0.95 {
			t.Fatalf("%.0f%% deleted: recall@%d = %.3f, want >= 0.95", share*100, k, r)
		}
	}
}

var sinkResults []Result

// BenchmarkSearch times one k = 11 search over a 10k × 32-d clustered
// index, querying with indexed vectors: the serving shape, where a vertex's
// own embedding asks for its k nearest plus itself.
func BenchmarkSearch(b *testing.B) {
	const (
		n   = 10_000
		dim = 32
	)
	vecs := clusteredVecs(n, dim, 16, 9)
	ix := buildIndex(b, vecs, Config{Dim: dim, Seed: 9})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ix.Search(vecs[i*7919%n], 11)
		if err != nil {
			b.Fatal(err)
		}
		sinkResults = res
	}
}

// BenchmarkInsert times inserts into an index growing to 10k × 32-d
// clustered vectors; each b.N block of 10k builds a fresh index.
func BenchmarkInsert(b *testing.B) {
	const (
		n   = 10_000
		dim = 32
	)
	vecs := clusteredVecs(n, dim, 16, 9)
	b.ReportAllocs()
	b.ResetTimer()
	var ix *Index
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			b.StopTimer()
			ix, _ = New(Config{Dim: dim, Seed: 9})
			b.StartTimer()
		}
		if err := ix.Insert(uint64(i%n), vecs[i%n]); err != nil {
			b.Fatal(err)
		}
	}
}
