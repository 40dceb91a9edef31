package ann

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// clusteredVecs generates n vectors in dim dimensions drawn from k Gaussian
// clusters — the geometry GNN embeddings actually have (classes collapse
// into clusters), and the one naive-link HNSW variants lose recall on.
func clusteredVecs(n, dim, k int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float32, k)
	for c := range centers {
		centers[c] = make([]float32, dim)
		for i := range centers[c] {
			centers[c][i] = float32(rng.NormFloat64() * 4)
		}
	}
	out := make([][]float32, n)
	for i := range out {
		c := centers[i%k]
		v := make([]float32, dim)
		for j := range v {
			v[j] = c[j] + float32(rng.NormFloat64())
		}
		out[i] = v
	}
	return out
}

// bruteKNN is the exact oracle: all live ids sorted by squared L2 distance.
func bruteKNN(corpus map[uint64][]float32, q []float32, k int) []uint64 {
	type pair struct {
		id   uint64
		dist float32
	}
	all := make([]pair, 0, len(corpus))
	for id, v := range corpus {
		all = append(all, pair{id, sqDist(q, v)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].dist != all[j].dist {
			return all[i].dist < all[j].dist
		}
		return all[i].id < all[j].id
	})
	if len(all) > k {
		all = all[:k]
	}
	ids := make([]uint64, len(all))
	for i, p := range all {
		ids[i] = p.id
	}
	return ids
}

func recallAt(t *testing.T, ix *Index, corpus map[uint64][]float32, queries [][]float32, k int) float64 {
	t.Helper()
	hits, total := 0, 0
	for _, q := range queries {
		truth := bruteKNN(corpus, q, k)
		got, err := ix.Search(q, k)
		if err != nil {
			t.Fatalf("search: %v", err)
		}
		want := make(map[uint64]bool, len(truth))
		for _, id := range truth {
			want[id] = true
		}
		for _, r := range got {
			if want[r.ID] {
				hits++
			}
		}
		total += len(truth)
	}
	return float64(hits) / float64(total)
}

// TestConformanceRecallAt10 is the fuzz-adjacent conformance gate: at a
// pinned size and seed, the index must agree with the brute-force oracle on
// at least 95% of top-10 results.
func TestConformanceRecallAt10(t *testing.T) {
	const (
		n    = 2000
		dim  = 32
		k    = 10
		seed = 7
	)
	vecs := clusteredVecs(n, dim, 16, seed)
	ix, err := New(Config{Dim: dim, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	corpus := make(map[uint64][]float32, n)
	for i, v := range vecs {
		if err := ix.Insert(uint64(i), v); err != nil {
			t.Fatal(err)
		}
		corpus[uint64(i)] = v
	}
	if r := recallAt(t, ix, corpus, conformanceQueries(vecs, seed), k); r < 0.95 {
		t.Fatalf("recall@%d = %.3f, want >= 0.95", k, r)
	}
}

// conformanceQueries draws 200 queries near corpus vectors: a random base
// vector plus N(0, 0.25²) noise per coordinate.
func conformanceQueries(vecs [][]float32, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed + 1))
	queries := make([][]float32, 200)
	for i := range queries {
		base := vecs[rng.Intn(len(vecs))]
		q := make([]float32, len(base))
		for j := range q {
			q[j] = base[j] + float32(rng.NormFloat64()*0.25)
		}
		queries[i] = q
	}
	return queries
}

// TestDeterministicSearch proves run-to-run reproducibility: the same
// insertion sequence under the same seed yields byte-identical search
// results (the level generator is a pure function of seed and ID, and the
// link heuristic is deterministic).
func TestDeterministicSearch(t *testing.T) {
	const (
		n   = 800
		dim = 16
	)
	vecs := clusteredVecs(n, dim, 8, 3)
	build := func() *Index {
		ix, err := New(Config{Dim: dim, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vecs {
			if err := ix.Insert(uint64(i), v); err != nil {
				t.Fatal(err)
			}
		}
		return ix
	}
	a, b := build(), build()
	rng := rand.New(rand.NewSource(5))
	for qi := 0; qi < 50; qi++ {
		q := vecs[rng.Intn(n)]
		ra, err := a.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(ra) != len(rb) {
			t.Fatalf("query %d: %d vs %d results", qi, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("query %d rank %d: %+v vs %+v", qi, i, ra[i], rb[i])
			}
		}
	}
}

// TestDeleteAndCompact covers the tombstone lifecycle: deleted IDs never
// come back from Search, recall over the survivors holds, the automatic
// compaction fires once tombstones dominate, and results survive it.
func TestDeleteAndCompact(t *testing.T) {
	const (
		n   = 600
		dim = 16
		k   = 10
	)
	m := &Metrics{}
	vecs := clusteredVecs(n, dim, 8, 17)
	ix, err := New(Config{Dim: dim, Seed: 17, MaxTombstoneShare: 0.35, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	corpus := make(map[uint64][]float32, n)
	for i, v := range vecs {
		if err := ix.Insert(uint64(i), v); err != nil {
			t.Fatal(err)
		}
		corpus[uint64(i)] = v
	}
	// Delete 40% — past MaxTombstoneShare relative to the arena only near
	// the end, so searches run against a tombstone-heavy graph first.
	deleted := make(map[uint64]bool)
	for i := 0; i < n; i += 5 {
		for j := 0; j < 2; j++ {
			id := uint64(i + j)
			if ix.Delete(id) {
				deleted[id] = true
				delete(corpus, id)
			}
		}
		q := vecs[(i+3)%n]
		got, err := ix.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got {
			if deleted[r.ID] {
				t.Fatalf("deleted id %d returned from search", r.ID)
			}
		}
	}
	if m.Compactions.Load() == 0 {
		t.Fatalf("expected automatic compaction after %d deletes (tombstones now %d)", len(deleted), ix.Tombstones())
	}
	if got, want := ix.Len(), len(corpus); got != want {
		t.Fatalf("Len() = %d, want %d", got, want)
	}
	rng := rand.New(rand.NewSource(99))
	queries := make([][]float32, 100)
	for i := range queries {
		for {
			id := uint64(rng.Intn(n))
			if v, ok := corpus[id]; ok {
				queries[i] = v
				break
			}
		}
	}
	if r := recallAt(t, ix, corpus, queries, k); r < 0.9 {
		t.Fatalf("post-delete recall@%d = %.3f, want >= 0.9", k, r)
	}
}

// TestUpsertReplacesVector covers the refresher's primary operation:
// re-inserting an existing ID moves it to the new embedding.
func TestUpsertReplacesVector(t *testing.T) {
	const dim = 8
	ix, err := New(Config{Dim: dim, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(fill float32) []float32 {
		v := make([]float32, dim)
		for i := range v {
			v[i] = fill
		}
		return v
	}
	for i := 0; i < 50; i++ {
		if err := ix.Insert(uint64(i), mk(float32(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Insert(3, mk(100)); err != nil {
		t.Fatal(err)
	}
	if got, _ := ix.Vector(3); got[0] != 100 {
		t.Fatalf("Vector(3)[0] = %v after upsert, want 100", got[0])
	}
	if ix.Len() != 50 {
		t.Fatalf("Len() = %d after upsert, want 50", ix.Len())
	}
	res, err := ix.Search(mk(100), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 3 {
		t.Fatalf("search near new position: %+v, want id 3", res)
	}
	res, err = ix.Search(mk(3), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.ID == 3 && r.Dist < 1e-6 {
			t.Fatalf("stale vector for id 3 still resident: %+v", res)
		}
	}
}

// TestEmptyAndErrors covers the degenerate paths.
func TestEmptyAndErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted Dim 0")
	}
	ix, err := New(Config{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := ix.Search([]float32{0, 0, 0, 0}, 5); err != nil || len(res) != 0 {
		t.Fatalf("empty-index search: %v, %v", res, err)
	}
	if _, err := ix.Search([]float32{1}, 5); err == nil {
		t.Fatal("dim-mismatched query accepted")
	}
	if err := ix.Insert(1, []float32{1}); err == nil {
		t.Fatal("dim-mismatched insert accepted")
	}
	if ix.Delete(42) {
		t.Fatal("Delete on missing id reported true")
	}
	if err := ix.Insert(1, []float32{1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	res, err := ix.Search([]float32{1, 0, 0, 0}, 3)
	if err != nil || len(res) != 1 || res[0].ID != 1 {
		t.Fatalf("single-element search: %v, %v", res, err)
	}
	if math.IsNaN(float64(res[0].Dist)) {
		t.Fatal("NaN distance")
	}
}
