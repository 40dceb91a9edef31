package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"platod2gl/internal/eventlog"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/wire"
)

// wireFixtures returns one populated instance of every RPC payload struct.
// Every field is non-zero so a codec that silently drops a field fails the
// DeepEqual, and every slice is non-empty so element codecs are exercised.
func wireFixtures() []wireMessage {
	vid := func(typ, local uint64) graph.VertexID {
		return graph.VertexID(typ<<56 | local)
	}
	ids := []graph.VertexID{vid(0, 0), vid(1, 42), vid(7, graph.MaxLocalID)}
	evs := []graph.Event{
		{Kind: graph.AddEdge, Edge: graph.Edge{Src: vid(1, 5), Dst: vid(2, 9), Type: 3, Weight: 1.5}, Timestamp: 1234567},
		{Kind: graph.DeleteEdge, Edge: graph.Edge{Src: vid(0, 1), Dst: vid(0, 2), Type: 1, Weight: -2.25}, Timestamp: -5},
	}
	dedup := []DedupEntry{{ClientID: 1, Seq: 2}, {ClientID: 3, Seq: 4}}
	sm := ShardMap{Epoch: 9, NumShards: 4, Replicas: 2,
		Servers: []string{"a:1", "b:2", "c:3", "d:4"}, Assign: []int{0, 1, 1, 0}}
	sfr := ShardFeaturesReply{
		Nodes:    ids,
		RowLens:  []int32{1, 2, 0},
		Data:     []float32{0.5, -1.25, 3},
		Labels:   []int32{-1, 0, 7},
		HasLabel: []bool{true, false, true},
		EdgeKeys: []kvstore.EdgeKey{{Src: vid(1, 8), Dst: vid(2, 9), Type: 5}},
		EdgeLens: []int32{2},
		EdgeData: []float32{0.25, 0.125},
	}
	dig := DigestReply{Topology: 11, Attrs: 22, NumEdges: 33, WALSeq: 44, SyncEpoch: 55, Ready: true}
	return []wireMessage{
		&BatchArgs{Events: evs, ClientID: 7, Seq: 9, Shard: 2, RouteEpoch: 5, Sum: 0xdeadbeef},
		&BatchReply{NumEdges: 42, Duplicate: true},
		&SampleArgs{Seeds: ids, Type: 3, Fanout: 5, Seed: -12, Shard: 1, RouteEpoch: 8},
		&SampleReply{Neighbors: ids},
		&DegreeArgs{Nodes: ids, Type: 2, Shard: 3, RouteEpoch: 1},
		&DegreeReply{Degrees: []int{0, 5, 123456}},
		&FeatureArgs{Nodes: ids, Dim: 64, WithLabels: true, Shard: 3, RouteEpoch: 2},
		&FeatureReply{Data: []float32{1, 2.5, -3}, Labels: []int32{-1, 0, 7}},
		&SourcesArgs{Type: 1, Shard: 2, RouteEpoch: 3},
		&SourcesReply{Nodes: ids},
		&SetFeaturesArgs{Nodes: ids, Dim: 2, Data: []float32{1, 2, 3, 4, 5, 6}, Labels: []int32{1, 2, 3}, Shard: 1, RouteEpoch: 4},
		&SetFeaturesReply{},
		&StatsArgs{},
		&StatsReply{NumEdges: 10, MemoryBytes: 1 << 30, NumSources: 3},
		&SyncStateArgs{},
		&SyncStateReply{Ready: true, SyncEpoch: 4, WALSeq: 99, NumEdges: 5},
		&SnapshotArgs{},
		&SnapshotReply{Snapshot: []byte{1, 2, 3}, WALSeq: 7, Dedup: dedup, Sum: 11},
		&WALTailArgs{AfterSeq: 3, MaxBatches: 10},
		&WALTailReply{Records: []eventlog.BatchRecord{{Seq: 1, ClientID: 2, ClientSeq: 3, Events: evs}},
			EndSeq: 9, WriterSeq: 10, Sum: 12},
		&RoutingArgs{},
		&RoutingReply{Has: true, Map: sm},
		&UpdateRoutingArgs{Map: sm},
		&UpdateRoutingReply{Epoch: 6},
		&ShardSnapshotArgs{Shard: 4},
		&ShardSnapshotReply{Events: evs, WALSeq: 3, NumShards: 8, Dedup: dedup, Sum: 13},
		&ShardFeaturesArgs{Shard: 1},
		&sfr,
		&ParkShardArgs{Shard: 2, TTLMillis: 5000},
		&ParkShardReply{WALSeq: 77},
		&ReleaseShardArgs{Shard: 3},
		&ReleaseShardReply{},
		&DropShardArgs{Shard: 6},
		&DropShardReply{DroppedEdges: 5, DroppedVertices: 2},
		&PullShardArgs{Shard: 1, Source: "mem://2", AfterSeq: 8, UntilSeq: 9, Features: true,
			CallTimeoutMillis: 1500, MaxBatches: 32},
		&PullShardReply{EndSeq: 9, Bytes: 1 << 20, Batches: 4},
		&DigestArgs{Shard: -1, NumShards: 8},
		&dig,
		&AttrsArgs{},
		&AttrsReply{Attrs: sfr, Sum: 9},
		&ScrubArgs{},
		&ScrubReply{Report: RoundReport{
			DurationNanos: 100,
			Local:         dig,
			Peers:         []PeerDigest{{Addr: "mem://1", Err: "probe: refused", Digest: dig}},
			DiskErrors:    []string{"crc mismatch segment 3"},
			Diverged:      true,
			Corrupt:       true,
			RepairPeer:    "mem://2",
			Repaired:      true,
			RepairErr:     "partial",
			RepairBytes:   9,
		}},
	}
}

func TestWireCodecRoundTrip(t *testing.T) {
	for _, msg := range wireFixtures() {
		name := fmt.Sprintf("%T", msg)
		b := msg.appendWire(nil)
		out := freshWireLike(msg)
		r := wire.NewReader(b)
		out.decodeWire(r)
		if err := r.Done(); err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(msg, out) {
			t.Errorf("%s round trip mismatch:\n in  %+v\n out %+v", name, msg, out)
		}
	}
}

// TestWireCodecZeroRoundTrip: the zero value of every payload must encode
// and decode back to itself (nil slices stay nil — important because
// DeepEqual-based tests elsewhere and gob both distinguish nil from empty).
func TestWireCodecZeroRoundTrip(t *testing.T) {
	for _, msg := range wireFixtures() {
		zero := freshWireLike(msg)
		name := fmt.Sprintf("%T", zero)
		b := zero.appendWire(nil)
		out := freshWireLike(msg)
		r := wire.NewReader(b)
		out.decodeWire(r)
		if err := r.Done(); err != nil {
			t.Errorf("%s: zero decode: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(zero, out) {
			t.Errorf("%s zero round trip mismatch:\n out %+v", name, out)
		}
	}
}

// TestWireCodecTruncation: every strict prefix of a valid encoding must
// fail decode cleanly (no panic, Done reports an error).
func TestWireCodecTruncation(t *testing.T) {
	for _, msg := range wireFixtures() {
		name := fmt.Sprintf("%T", msg)
		b := msg.appendWire(nil)
		for cut := 0; cut < len(b); cut++ {
			out := freshWireLike(msg)
			r := wire.NewReader(b[:cut])
			out.decodeWire(r)
			if r.Done() == nil {
				t.Fatalf("%s: decode of %d/%d-byte prefix succeeded", name, cut, len(b))
			}
		}
	}
}

// TestWireFixturesCoverDispatchTable guards fixture completeness: every
// args/reply type reachable through the method table has a fixture, so a
// new RPC cannot land without codec tests.
func TestWireFixturesCoverDispatchTable(t *testing.T) {
	have := map[reflect.Type]bool{}
	for _, m := range wireFixtures() {
		have[reflect.TypeOf(m)] = true
	}
	for _, wm := range wireMethods {
		for _, m := range []wireMessage{wm.newArgs(), wm.newReply()} {
			if !have[reflect.TypeOf(m)] {
				t.Errorf("method %s: no wire fixture for %T", wm.name, m)
			}
		}
	}
}

// TestWireMethodIDsStable pins the method-id assignment. These ids are
// wire-protocol surface: reordering wireMethods breaks mixed-version
// clusters, so any id change must come with a protocol version bump.
func TestWireMethodIDsStable(t *testing.T) {
	want := []string{
		"ApplyBatch", "SampleNeighbors", "Degree", "Features", "SetFeatures",
		"Sources", "Stats", "FetchSnapshot", "FetchWALTail", "SyncState",
		"Routing", "UpdateRouting", "FetchShardSnapshot", "FetchShardFeatures",
		"ParkShard", "ReleaseShard", "DropShard", "PullShard", "ShardDigest",
		"Scrub", "FetchAttrs",
	}
	if len(wireMethods) != len(want) {
		t.Fatalf("wireMethods has %d entries, want %d", len(wireMethods), len(want))
	}
	for id, name := range want {
		if wireMethods[id].name != name {
			t.Errorf("method id %d = %q, want %q", id, wireMethods[id].name, name)
		}
		if got := wireMethodID[ServiceName+"."+name]; got != id {
			t.Errorf("wireMethodID[%s] = %d, want %d", name, got, id)
		}
	}
}

// TestFeatureReplyFastPaths: the server's store-backed encoding is
// byte-identical to encoding the gathered matrix, and the client's scatter
// decoding places every row and label where the plain decode's would go.
func TestFeatureReplyFastPaths(t *testing.T) {
	attrs := kvstore.New()
	ids := []graph.VertexID{1, 2, 3, 4, 5}
	attrs.SetFeatures(ids[0], []float32{1, 2, 3})
	attrs.SetFeatures(ids[1], []float32{4})          // short row: zero tail
	attrs.SetFeatures(ids[2], []float32{5, 6, 7, 8}) // long row: truncated
	attrs.SetFeatures(ids[4], []float32{9, -10, 11}) // ids[3] has none
	attrs.SetLabel(ids[0], 3)
	attrs.SetLabel(ids[4], -1)
	const dim = 3
	idx := []int{4, 0, 3, 1, 2} // reply row j lands in row idx[j]
	for _, withLabels := range []bool{false, true} {
		plain := FeatureReply{Data: attrs.GatherFeatures(ids, dim)}
		if withLabels {
			plain.Labels = attrs.GatherLabels(ids)
		}
		want := plain.appendWire(nil)
		lazy := FeatureReply{from: &featureSource{attrs: attrs, nodes: ids, dim: dim, labels: withLabels}}
		if got := lazy.appendWire(nil); !bytes.Equal(got, want) {
			t.Fatalf("labels=%v: store-backed encoding differs:\n got %x\nwant %x", withLabels, got, want)
		}
		if lazy.wireSize() < len(want) {
			t.Fatalf("labels=%v: wireSize %d below encoded %d bytes", withLabels, lazy.wireSize(), len(want))
		}

		rows := &featureRows{out: make([]float32, len(ids)*dim), idx: idx, dim: dim}
		if withLabels {
			rows.labels = make([]int32, len(ids))
		}
		r := wire.NewReader(want)
		rows.decodeWire(r)
		if err := r.Done(); err != nil || !rows.filled {
			t.Fatalf("labels=%v: scatter decode: %v (filled %v)", withLabels, err, rows.filled)
		}
		for j, i := range idx {
			if !reflect.DeepEqual(rows.out[i*dim:(i+1)*dim], plain.Data[j*dim:(j+1)*dim]) {
				t.Fatalf("labels=%v: row %d landed as %v, want %v", withLabels, j, rows.out[i*dim:(i+1)*dim], plain.Data[j*dim:(j+1)*dim])
			}
			if withLabels && rows.labels[i] != plain.Labels[j] {
				t.Fatalf("labels=%v: label %d landed as %d, want %d", withLabels, j, rows.labels[i], plain.Labels[j])
			}
		}

		// A reply that does not match the request poisons the decode: too
		// few rows requested, or labels present when none were asked for
		// (and absent when they were).
		short := &featureRows{out: make([]float32, len(ids)*dim), idx: idx[:4], dim: dim}
		r = wire.NewReader(want)
		short.decodeWire(r)
		if r.Done() == nil || short.filled {
			t.Fatalf("labels=%v: row-count mismatch decoded cleanly", withLabels)
		}
		flipped := &featureRows{out: make([]float32, len(ids)*dim), idx: idx, dim: dim}
		if !withLabels {
			flipped.labels = make([]int32, len(ids))
		}
		r = wire.NewReader(want)
		flipped.decodeWire(r)
		if r.Done() == nil || flipped.filled {
			t.Fatalf("labels=%v: label mismatch decoded cleanly", withLabels)
		}
	}
}

// FuzzWireDecode feeds arbitrary bytes to every payload decoder. Corrupt
// frames must surface as Reader errors — never panics, never multi-GiB
// allocations from forged counts (Count bounds every slice length against
// the bytes actually present).
func FuzzWireDecode(f *testing.F) {
	for _, msg := range wireFixtures() {
		f.Add(msg.appendWire(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, wm := range wireMethods {
			for _, m := range []wireMessage{wm.newArgs(), wm.newReply()} {
				r := wire.NewReader(data)
				m.decodeWire(r)
				_ = r.Done()
			}
		}
	})
}
