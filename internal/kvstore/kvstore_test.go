package kvstore

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"platod2gl/internal/graph"
)

func TestSetGetFeatures(t *testing.T) {
	s := New()
	id := graph.MakeVertexID(1, 42)
	if _, ok := s.Features(id); ok {
		t.Fatal("empty store returned features")
	}
	f := []float32{1, 2, 3}
	s.SetFeatures(id, f)
	got, ok := s.Features(id)
	if !ok || len(got) != 3 || got[2] != 3 {
		t.Fatalf("Features = %v,%v", got, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestLabels(t *testing.T) {
	s := New()
	id := graph.MakeVertexID(0, 7)
	if _, ok := s.Label(id); ok {
		t.Fatal("empty store returned a label")
	}
	s.SetLabel(id, 3)
	if l, ok := s.Label(id); !ok || l != 3 {
		t.Fatalf("Label = %d,%v", l, ok)
	}
}

func TestDeleteVertex(t *testing.T) {
	s := New()
	id := graph.MakeVertexID(0, 9)
	s.SetFeatures(id, []float32{1})
	s.SetLabel(id, 1)
	s.DeleteVertex(id)
	if _, ok := s.Features(id); ok {
		t.Fatal("features survived delete")
	}
	if _, ok := s.Label(id); ok {
		t.Fatal("label survived delete")
	}
}

func TestGatherFeatures(t *testing.T) {
	s := New()
	a := graph.MakeVertexID(0, 1)
	b := graph.MakeVertexID(0, 2)
	missing := graph.MakeVertexID(0, 3)
	s.SetFeatures(a, []float32{1, 2})
	s.SetFeatures(b, []float32{3, 4})
	m := s.GatherFeatures([]graph.VertexID{a, missing, b}, 2)
	want := []float32{1, 2, 0, 0, 3, 4}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("GatherFeatures = %v, want %v", m, want)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				id := graph.MakeVertexID(graph.VertexType(g), uint64(i))
				s.SetFeatures(id, []float32{float32(i)})
				s.SetLabel(id, int32(i))
				if f, ok := s.Features(id); !ok || f[0] != float32(i) {
					t.Errorf("lost features for %v", id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 8*5000 {
		t.Fatalf("Len = %d, want %d", s.Len(), 8*5000)
	}
}

func TestMemoryBytesGrows(t *testing.T) {
	s := New()
	before := s.MemoryBytes()
	for i := uint64(0); i < 1000; i++ {
		s.SetFeatures(graph.MakeVertexID(0, i), make([]float32, 64))
	}
	after := s.MemoryBytes()
	if after <= before || after < 1000*64*4 {
		t.Fatalf("MemoryBytes %d -> %d, expected growth >= payload", before, after)
	}
}

func TestEdgeFeatures(t *testing.T) {
	s := New()
	k := EdgeKey{Src: graph.MakeVertexID(0, 1), Dst: graph.MakeVertexID(1, 2), Type: 3}
	if _, ok := s.EdgeFeatures(k); ok {
		t.Fatal("empty store returned edge features")
	}
	s.SetEdgeFeatures(k, []float32{9, 8})
	f, ok := s.EdgeFeatures(k)
	if !ok || f[1] != 8 {
		t.Fatalf("EdgeFeatures = %v,%v", f, ok)
	}
	// Distinct type = distinct edge.
	k2 := k
	k2.Type = 4
	if _, ok := s.EdgeFeatures(k2); ok {
		t.Fatal("edge type not part of key")
	}
	s.DeleteEdgeFeatures(k)
	if _, ok := s.EdgeFeatures(k); ok {
		t.Fatal("edge features survived delete")
	}
}

// TestAppendFeaturesMatchesGather: the appended bytes are exactly the
// little-endian encoding of GatherFeatures' and GatherLabels' results,
// including zero rows for missing vertices and the zero tail or cut of a
// stored row shorter or longer than dim.
func TestAppendFeaturesMatchesGather(t *testing.T) {
	s := New()
	ids := []graph.VertexID{10, 11, 12, 13}
	s.SetFeatures(ids[0], []float32{1, -2, 3})
	s.SetFeatures(ids[1], []float32{4})
	s.SetFeatures(ids[3], []float32{5, 6, 7, 8})
	s.SetLabel(ids[1], 9)
	s.SetLabel(ids[3], -4)
	const dim = 3
	var want []byte
	for _, x := range s.GatherFeatures(ids, dim) {
		want = binary.LittleEndian.AppendUint32(want, math.Float32bits(x))
	}
	prefix := []byte{0xaa}
	if got := s.AppendFeatures(prefix, ids, dim); !bytes.Equal(got, append(prefix, want...)) {
		t.Fatalf("AppendFeatures = %x, want %x", got, append(prefix, want...))
	}
	want = want[:0]
	for _, l := range s.GatherLabels(ids) {
		want = binary.LittleEndian.AppendUint32(want, uint32(l))
	}
	if got := s.AppendLabels(nil, ids); !bytes.Equal(got, want) {
		t.Fatalf("AppendLabels = %x, want %x", got, want)
	}
}
