// Package kvstore implements the attribute storage of PlatoD2GL's dynamic
// graph storage layer (Fig. 2): a sharded in-memory key-value store mapping
// vertices to dense float32 feature vectors and integer labels. The paper
// keeps attributes in a conventional key-value store — only the *topology*
// moves to the non-key-value samtree — so this store is deliberately plain.
package kvstore

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"platod2gl/internal/graph"
)

const shardCount = 64

// EdgeKey addresses edge attributes.
type EdgeKey struct {
	Src, Dst graph.VertexID
	Type     graph.EdgeType
}

type shard struct {
	mu       sync.RWMutex
	features map[graph.VertexID][]float32
	labels   map[graph.VertexID]int32
	edges    map[EdgeKey][]float32
	// digest is the XOR of every entry's checksum (see digest.go), kept
	// current by each mutation under mu.
	digest uint64
}

// Store is a concurrent vertex-attribute store.
type Store struct {
	shards [shardCount]shard
}

// New returns an empty attribute store.
func New() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].features = make(map[graph.VertexID][]float32)
		s.shards[i].labels = make(map[graph.VertexID]int32)
		s.shards[i].edges = make(map[EdgeKey][]float32)
	}
	return s
}

func (s *Store) shardFor(id graph.VertexID) *shard {
	x := uint64(id)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return &s.shards[x&(shardCount-1)]
}

// SetFeatures stores the feature vector for id. The slice is retained; the
// caller must not mutate it afterwards.
func (s *Store) SetFeatures(id graph.VertexID, f []float32) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	if old, ok := sh.features[id]; ok {
		sh.digest ^= featureSum(id, old)
	}
	sh.features[id] = f
	sh.digest ^= featureSum(id, f)
	sh.mu.Unlock()
}

// Features returns the stored feature vector for id (shared, do not mutate).
func (s *Store) Features(id graph.VertexID) ([]float32, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	f, ok := sh.features[id]
	sh.mu.RUnlock()
	return f, ok
}

// GatherFeatures copies the feature vectors of ids row-by-row into a dense
// matrix of shape (len(ids), dim). Vertices without features produce zero
// rows.
func (s *Store) GatherFeatures(ids []graph.VertexID, dim int) []float32 {
	out := make([]float32, len(ids)*dim)
	for i, id := range ids {
		if f, ok := s.Features(id); ok {
			copy(out[i*dim:(i+1)*dim], f)
		}
	}
	return out
}

// AppendFeatures appends the matrix GatherFeatures(ids, dim) would return
// to b as little-endian float32 bits, copying each row straight from the
// store. A server encodes a feature reply this way without first
// materializing the matrix.
func (s *Store) AppendFeatures(b []byte, ids []graph.VertexID, dim int) []byte {
	rowBytes := 4 * dim
	b = slices.Grow(b, len(ids)*rowBytes)
	for _, id := range ids {
		f, _ := s.Features(id)
		f = f[:min(len(f), dim)]
		n := len(b)
		b = b[:n+rowBytes]
		row := b[n:]
		for i, x := range f {
			binary.LittleEndian.PutUint32(row[4*i:], math.Float32bits(x))
		}
		clear(row[4*len(f):])
	}
	return b
}

// AppendLabels appends the vector GatherLabels(ids) would return to b as
// little-endian int32s.
func (s *Store) AppendLabels(b []byte, ids []graph.VertexID) []byte {
	b = slices.Grow(b, 4*len(ids))
	for _, id := range ids {
		l, _ := s.Label(id)
		b = binary.LittleEndian.AppendUint32(b, uint32(l))
	}
	return b
}

// GatherLabels copies the labels of ids into a dense vector. Vertices
// without labels produce 0, matching GatherFeatures' zero-row convention.
func (s *Store) GatherLabels(ids []graph.VertexID) []int32 {
	out := make([]int32, len(ids))
	for i, id := range ids {
		if l, ok := s.Label(id); ok {
			out[i] = l
		}
	}
	return out
}

// SetLabel stores the class label for id.
func (s *Store) SetLabel(id graph.VertexID, label int32) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	if old, ok := sh.labels[id]; ok {
		sh.digest ^= labelSum(id, old)
	}
	sh.labels[id] = label
	sh.digest ^= labelSum(id, label)
	sh.mu.Unlock()
}

// Label returns the stored label for id.
func (s *Store) Label(id graph.VertexID) (int32, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	l, ok := sh.labels[id]
	sh.mu.RUnlock()
	return l, ok
}

// SetEdgeFeatures stores the feature vector for an edge (Fig. 2's "attributes
// information of nodes or edges"). The slice is retained. Edge attributes are
// sharded by source so they colocate with the source's topology.
func (s *Store) SetEdgeFeatures(k EdgeKey, f []float32) {
	sh := s.shardFor(k.Src)
	sh.mu.Lock()
	if old, ok := sh.edges[k]; ok {
		sh.digest ^= edgeSum(k, old)
	}
	sh.edges[k] = f
	sh.digest ^= edgeSum(k, f)
	sh.mu.Unlock()
}

// EdgeFeatures returns the stored edge feature vector (shared, do not
// mutate).
func (s *Store) EdgeFeatures(k EdgeKey) ([]float32, bool) {
	sh := s.shardFor(k.Src)
	sh.mu.RLock()
	f, ok := sh.edges[k]
	sh.mu.RUnlock()
	return f, ok
}

// DeleteEdgeFeatures removes an edge's attributes (call on edge deletion).
func (s *Store) DeleteEdgeFeatures(k EdgeKey) {
	sh := s.shardFor(k.Src)
	sh.mu.Lock()
	if old, ok := sh.edges[k]; ok {
		sh.digest ^= edgeSum(k, old)
		delete(sh.edges, k)
	}
	sh.mu.Unlock()
}

// DeleteVertex removes all attributes of id.
func (s *Store) DeleteVertex(id graph.VertexID) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	if old, ok := sh.features[id]; ok {
		sh.digest ^= featureSum(id, old)
		delete(sh.features, id)
	}
	if old, ok := sh.labels[id]; ok {
		sh.digest ^= labelSum(id, old)
		delete(sh.labels, id)
	}
	sh.mu.Unlock()
}

// RangeVertices calls fn for every vertex holding features and/or a label,
// until fn returns false. Feature slices are the stored ones (do not
// mutate); hasLabel distinguishes "label 0" from "no label". Iteration is
// per-shard consistent but not a global snapshot — concurrent writes may or
// may not be observed. The shard-migration path uses this to enumerate
// attribute state, which the plain map-based store never needed to expose.
func (s *Store) RangeVertices(fn func(id graph.VertexID, features []float32, label int32, hasLabel bool) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		ids := make([]graph.VertexID, 0, len(sh.features)+len(sh.labels))
		for id := range sh.features {
			ids = append(ids, id)
		}
		for id := range sh.labels {
			if _, ok := sh.features[id]; !ok {
				ids = append(ids, id)
			}
		}
		sh.mu.RUnlock()
		for _, id := range ids {
			sh.mu.RLock()
			f := sh.features[id]
			l, hasL := sh.labels[id]
			sh.mu.RUnlock()
			if f == nil && !hasL {
				continue // deleted between the scans
			}
			if !fn(id, f, l, hasL) {
				return
			}
		}
	}
}

// RangeEdges calls fn for every edge holding features, until fn returns
// false. The same consistency caveats as RangeVertices apply.
func (s *Store) RangeEdges(fn func(k EdgeKey, features []float32) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		keys := make([]EdgeKey, 0, len(sh.edges))
		for k := range sh.edges {
			keys = append(keys, k)
		}
		sh.mu.RUnlock()
		for _, k := range keys {
			sh.mu.RLock()
			f, ok := sh.edges[k]
			sh.mu.RUnlock()
			if !ok {
				continue
			}
			if !fn(k, f) {
				return
			}
		}
	}
}

// Len returns the number of vertices holding features.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.features)
		sh.mu.RUnlock()
	}
	return n
}

// MemoryBytes returns the approximate structural footprint: per-entry map
// overhead plus feature payloads.
func (s *Store) MemoryBytes() int64 {
	const mapEntryOverhead = 48 // bucket slot + key + value header, amortized
	var total int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += int64(len(sh.labels)) * (mapEntryOverhead - 24)
		for _, f := range sh.features {
			total += mapEntryOverhead + int64(4*cap(f))
		}
		for _, f := range sh.edges {
			total += mapEntryOverhead + 17 + int64(4*cap(f))
		}
		sh.mu.RUnlock()
	}
	return total
}
