// Hand-rolled wire codecs for every RPC payload struct. Layouts exploit
// what gob cannot: vertex ids are a type byte plus a varint of the 56-bit
// local id (frontier ids are small, so 2-4 bytes instead of 8+), counts and
// shard/epoch fields are varints, and the bulk payloads — feature matrices,
// label vectors, snapshot bytes — are flat little-endian copies with no
// per-element reflection. Checksums (Sum fields) ride as fixed 8-byte
// words, preserving the end-to-end integrity protocol unchanged.
//
// Every struct encodes with appendWire and decodes with decodeWire against
// a bounds-checked wire.Reader; decode failures surface through
// Reader.Err/Done, never panics. The layouts are protocol version 1; a
// future version bump negotiates at handshake and switches here.
package cluster

import (
	"encoding/binary"

	"platod2gl/internal/eventlog"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/wire"
)

// wireMessage is implemented by every RPC arg/reply struct.
type wireMessage interface {
	appendWire(b []byte) []byte
	decodeWire(r *wire.Reader)
}

// wireSizer is implemented by payloads that can bound their encoded length
// up front; frame builders then take a buffer of that size from the pool.
type wireSizer interface {
	wireSize() int
}

// frameBuf returns an empty pooled buffer with room for a frame of
// headerBytes plus m's encoding when m can bound it.
func frameBuf(headerBytes int, m wireMessage) []byte {
	if s, ok := m.(wireSizer); ok {
		return wire.GetBuf(headerBytes + s.wireSize())[:0]
	}
	return wire.GetBuf(0)
}

// --- shared sub-codecs ---------------------------------------------------

// appendVertexID packs id as its type byte plus a varint local id.
func appendVertexID(b []byte, id graph.VertexID) []byte {
	b = append(b, byte(id.Type()))
	return wire.AppendUvarint(b, id.Local())
}

func readVertexID(r *wire.Reader) graph.VertexID {
	t := r.Byte()
	local := r.Uvarint()
	if local > graph.MaxLocalID {
		// Poison the decode instead of letting MakeVertexID panic on a
		// corrupt frame.
		r.Invalidate()
		return 0
	}
	return graph.VertexID(uint64(t)<<56 | local)
}

func appendVertexIDs(b []byte, ids []graph.VertexID) []byte {
	b = wire.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = appendVertexID(b, id)
	}
	return b
}

// vertexIDsSize bounds the encoded length of n vertex ids.
func vertexIDsSize(n int) int { return binary.MaxVarintLen64 + n*(1+binary.MaxVarintLen64) }

func readVertexIDs(r *wire.Reader) []graph.VertexID {
	// Each id is at least 2 bytes (type byte + 1 varint byte).
	n := r.Count(2)
	if r.Err() != nil || n == 0 {
		return nil
	}
	ids := make([]graph.VertexID, n)
	for i := range ids {
		ids[i] = readVertexID(r)
	}
	return ids
}

// appendEvent lays an event out in ~15-21 bytes (vs ~34 under gob): kind,
// edge type, packed src/dst, fixed weight, varint timestamp.
func appendEvent(b []byte, ev graph.Event) []byte {
	b = append(b, byte(ev.Kind), byte(ev.Edge.Type))
	b = appendVertexID(b, ev.Edge.Src)
	b = appendVertexID(b, ev.Edge.Dst)
	b = wire.AppendFloat64(b, ev.Edge.Weight)
	return wire.AppendVarint(b, ev.Timestamp)
}

func readEvent(r *wire.Reader) graph.Event {
	var ev graph.Event
	ev.Kind = graph.EventKind(r.Byte())
	ev.Edge.Type = graph.EdgeType(r.Byte())
	ev.Edge.Src = readVertexID(r)
	ev.Edge.Dst = readVertexID(r)
	ev.Edge.Weight = r.Float64()
	ev.Timestamp = r.Varint()
	return ev
}

func appendEvents(b []byte, evs []graph.Event) []byte {
	b = wire.AppendUvarint(b, uint64(len(evs)))
	for _, ev := range evs {
		b = appendEvent(b, ev)
	}
	return b
}

func readEvents(r *wire.Reader) []graph.Event {
	// Minimum event size: kind + type + two 2-byte ids + weight + timestamp.
	n := r.Count(15)
	if r.Err() != nil || n == 0 {
		return nil
	}
	evs := make([]graph.Event, n)
	for i := range evs {
		evs[i] = readEvent(r)
	}
	return evs
}

func appendDedup(b []byte, entries []DedupEntry) []byte {
	b = wire.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = wire.AppendUvarint(b, e.ClientID)
		b = wire.AppendUvarint(b, e.Seq)
	}
	return b
}

func readDedup(r *wire.Reader) []DedupEntry {
	n := r.Count(2)
	if r.Err() != nil || n == 0 {
		return nil
	}
	entries := make([]DedupEntry, n)
	for i := range entries {
		entries[i].ClientID = r.Uvarint()
		entries[i].Seq = r.Uvarint()
	}
	return entries
}

func appendShardMap(b []byte, m *ShardMap) []byte {
	b = wire.AppendUvarint(b, m.Epoch)
	b = wire.AppendVarint(b, int64(m.NumShards))
	b = wire.AppendVarint(b, int64(m.Replicas))
	b = wire.AppendUvarint(b, uint64(len(m.Servers)))
	for _, s := range m.Servers {
		b = wire.AppendString(b, s)
	}
	b = wire.AppendUvarint(b, uint64(len(m.Assign)))
	for _, a := range m.Assign {
		b = wire.AppendVarint(b, int64(a))
	}
	return b
}

func readShardMap(r *wire.Reader, m *ShardMap) {
	m.Epoch = r.Uvarint()
	m.NumShards = int(r.Varint())
	m.Replicas = int(r.Varint())
	if n := r.Count(1); r.Err() == nil && n > 0 {
		m.Servers = make([]string, n)
		for i := range m.Servers {
			m.Servers[i] = r.String()
		}
	}
	if n := r.Count(1); r.Err() == nil && n > 0 {
		m.Assign = make([]int, n)
		for i := range m.Assign {
			m.Assign[i] = int(r.Varint())
		}
	}
}

func appendStrings(b []byte, v []string) []byte {
	b = wire.AppendUvarint(b, uint64(len(v)))
	for _, s := range v {
		b = wire.AppendString(b, s)
	}
	return b
}

func readStrings(r *wire.Reader) []string {
	n := r.Count(1)
	if r.Err() != nil || n == 0 {
		return nil
	}
	v := make([]string, n)
	for i := range v {
		v[i] = r.String()
	}
	return v
}

// --- data plane ----------------------------------------------------------

func (a *BatchArgs) appendWire(b []byte) []byte {
	b = appendEvents(b, a.Events)
	b = wire.AppendUvarint(b, a.ClientID)
	b = wire.AppendUvarint(b, a.Seq)
	b = wire.AppendVarint(b, int64(a.Shard))
	b = wire.AppendUvarint(b, a.RouteEpoch)
	return wire.AppendUint64(b, a.Sum)
}

// maxEventSize bounds one encoded event: kind, type, two ids, weight,
// timestamp.
const maxEventSize = 2 + 2*(1+binary.MaxVarintLen64) + 8 + binary.MaxVarintLen64

func (a *BatchArgs) wireSize() int {
	return binary.MaxVarintLen64 + len(a.Events)*maxEventSize + 4*binary.MaxVarintLen64 + 8
}

func (a *BatchArgs) decodeWire(r *wire.Reader) {
	a.Events = readEvents(r)
	a.ClientID = r.Uvarint()
	a.Seq = r.Uvarint()
	a.Shard = int(r.Varint())
	a.RouteEpoch = r.Uvarint()
	a.Sum = r.Uint64()
}

func (a *BatchReply) appendWire(b []byte) []byte {
	b = wire.AppendVarint(b, a.NumEdges)
	return wire.AppendBool(b, a.Duplicate)
}

func (a *BatchReply) decodeWire(r *wire.Reader) {
	a.NumEdges = r.Varint()
	a.Duplicate = r.Bool()
}

func (a *SampleArgs) appendWire(b []byte) []byte {
	b = appendVertexIDs(b, a.Seeds)
	b = append(b, byte(a.Type))
	b = wire.AppendVarint(b, int64(a.Fanout))
	b = wire.AppendVarint(b, a.Seed)
	b = wire.AppendVarint(b, int64(a.Shard))
	return wire.AppendUvarint(b, a.RouteEpoch)
}

func (a *SampleArgs) wireSize() int { return vertexIDsSize(len(a.Seeds)) + 1 + 4*binary.MaxVarintLen64 }

func (a *SampleArgs) decodeWire(r *wire.Reader) {
	a.Seeds = readVertexIDs(r)
	a.Type = graph.EdgeType(r.Byte())
	a.Fanout = int(r.Varint())
	a.Seed = r.Varint()
	a.Shard = int(r.Varint())
	a.RouteEpoch = r.Uvarint()
}

func (a *SampleReply) appendWire(b []byte) []byte { return appendVertexIDs(b, a.Neighbors) }

func (a *SampleReply) wireSize() int { return vertexIDsSize(len(a.Neighbors)) }

func (a *SampleReply) decodeWire(r *wire.Reader) { a.Neighbors = readVertexIDs(r) }

func (a *DegreeArgs) appendWire(b []byte) []byte {
	b = appendVertexIDs(b, a.Nodes)
	b = append(b, byte(a.Type))
	b = wire.AppendVarint(b, int64(a.Shard))
	return wire.AppendUvarint(b, a.RouteEpoch)
}

func (a *DegreeArgs) decodeWire(r *wire.Reader) {
	a.Nodes = readVertexIDs(r)
	a.Type = graph.EdgeType(r.Byte())
	a.Shard = int(r.Varint())
	a.RouteEpoch = r.Uvarint()
}

func (a *DegreeReply) appendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(a.Degrees)))
	for _, d := range a.Degrees {
		b = wire.AppendVarint(b, int64(d))
	}
	return b
}

func (a *DegreeReply) decodeWire(r *wire.Reader) {
	n := r.Count(1)
	if r.Err() != nil || n == 0 {
		return
	}
	a.Degrees = make([]int, n)
	for i := range a.Degrees {
		a.Degrees[i] = int(r.Varint())
	}
}

func (a *FeatureArgs) appendWire(b []byte) []byte {
	b = appendVertexIDs(b, a.Nodes)
	b = wire.AppendVarint(b, int64(a.Dim))
	b = wire.AppendBool(b, a.WithLabels)
	b = wire.AppendVarint(b, int64(a.Shard))
	return wire.AppendUvarint(b, a.RouteEpoch)
}

func (a *FeatureArgs) wireSize() int {
	return vertexIDsSize(len(a.Nodes)) + 1 + 3*binary.MaxVarintLen64
}

func (a *FeatureArgs) decodeWire(r *wire.Reader) {
	a.Nodes = readVertexIDs(r)
	a.Dim = int(r.Varint())
	a.WithLabels = r.Bool()
	a.Shard = int(r.Varint())
	a.RouteEpoch = r.Uvarint()
}

// FeatureReply's layout is `Float32s data | Int32s labels` whichever side
// of the call built it; see FeatureReply for the from/into fast paths.
func (a *FeatureReply) appendWire(b []byte) []byte {
	src := a.from
	if src == nil {
		b = wire.AppendFloat32s(b, a.Data)
		return wire.AppendInt32s(b, a.Labels)
	}
	b = wire.AppendUvarint(b, uint64(len(src.nodes)*src.dim))
	b = src.attrs.AppendFeatures(b, src.nodes, src.dim)
	if !src.labels {
		return wire.AppendUvarint(b, 0)
	}
	b = wire.AppendUvarint(b, uint64(len(src.nodes)))
	return src.attrs.AppendLabels(b, src.nodes)
}

// wireSize bounds the encoded length, so the server's response frame comes
// from the right pool class instead of growing by append.
func (a *FeatureReply) wireSize() int {
	floats, labels := len(a.Data), len(a.Labels)
	if src := a.from; src != nil {
		floats = len(src.nodes) * src.dim
		labels = 0
		if src.labels {
			labels = len(src.nodes)
		}
	}
	return 2*binary.MaxVarintLen64 + 4*(floats+labels)
}

func (a *FeatureReply) decodeWire(r *wire.Reader) {
	if a.into != nil {
		a.into.decodeWire(r)
		return
	}
	a.Data = r.Float32s()
	a.Labels = r.Int32s()
}

// decodeWire reads a FeatureReply's payload, writing each row and label
// straight to its original index. A count that does not match the request
// poisons the decode.
func (f *featureRows) decodeWire(r *wire.Reader) {
	if r.Count(4) != len(f.idx)*f.dim {
		r.Invalidate()
		return
	}
	for _, i := range f.idx {
		r.FillFloat32s(f.out[i*f.dim : (i+1)*f.dim])
	}
	n := r.Count(4)
	switch {
	case f.labels == nil && n == 0:
	case f.labels != nil && n == len(f.idx):
		for _, i := range f.idx {
			f.labels[i] = int32(r.Uint32())
		}
	default:
		r.Invalidate()
	}
	f.filled = r.Err() == nil
}

func (a *SourcesArgs) appendWire(b []byte) []byte {
	b = append(b, byte(a.Type))
	b = wire.AppendVarint(b, int64(a.Shard))
	return wire.AppendUvarint(b, a.RouteEpoch)
}

func (a *SourcesArgs) decodeWire(r *wire.Reader) {
	a.Type = graph.EdgeType(r.Byte())
	a.Shard = int(r.Varint())
	a.RouteEpoch = r.Uvarint()
}

func (a *SourcesReply) appendWire(b []byte) []byte { return appendVertexIDs(b, a.Nodes) }

func (a *SourcesReply) decodeWire(r *wire.Reader) { a.Nodes = readVertexIDs(r) }

func (a *SetFeaturesArgs) appendWire(b []byte) []byte {
	b = appendVertexIDs(b, a.Nodes)
	b = wire.AppendVarint(b, int64(a.Dim))
	b = wire.AppendFloat32s(b, a.Data)
	b = wire.AppendInt32s(b, a.Labels)
	b = wire.AppendVarint(b, int64(a.Shard))
	return wire.AppendUvarint(b, a.RouteEpoch)
}

func (a *SetFeaturesArgs) decodeWire(r *wire.Reader) {
	a.Nodes = readVertexIDs(r)
	a.Dim = int(r.Varint())
	a.Data = r.Float32s()
	a.Labels = r.Int32s()
	a.Shard = int(r.Varint())
	a.RouteEpoch = r.Uvarint()
}

func (a *SetFeaturesReply) appendWire(b []byte) []byte { return b }

func (a *SetFeaturesReply) decodeWire(*wire.Reader) {}

func (a *StatsArgs) appendWire(b []byte) []byte { return b }

func (a *StatsArgs) decodeWire(*wire.Reader) {}

func (a *StatsReply) appendWire(b []byte) []byte {
	b = wire.AppendVarint(b, a.NumEdges)
	b = wire.AppendVarint(b, a.MemoryBytes)
	return wire.AppendVarint(b, int64(a.NumSources))
}

func (a *StatsReply) decodeWire(r *wire.Reader) {
	a.NumEdges = r.Varint()
	a.MemoryBytes = r.Varint()
	a.NumSources = int(r.Varint())
}

// --- replica sync --------------------------------------------------------

func (a *SyncStateArgs) appendWire(b []byte) []byte { return b }

func (a *SyncStateArgs) decodeWire(*wire.Reader) {}

func (a *SyncStateReply) appendWire(b []byte) []byte {
	b = wire.AppendBool(b, a.Ready)
	b = wire.AppendUvarint(b, a.SyncEpoch)
	b = wire.AppendUvarint(b, a.WALSeq)
	return wire.AppendVarint(b, a.NumEdges)
}

func (a *SyncStateReply) decodeWire(r *wire.Reader) {
	a.Ready = r.Bool()
	a.SyncEpoch = r.Uvarint()
	a.WALSeq = r.Uvarint()
	a.NumEdges = r.Varint()
}

func (a *SnapshotArgs) appendWire(b []byte) []byte { return b }

func (a *SnapshotArgs) decodeWire(*wire.Reader) {}

func (a *SnapshotReply) appendWire(b []byte) []byte {
	b = wire.AppendBytes(b, a.Snapshot)
	b = wire.AppendUvarint(b, a.WALSeq)
	b = appendDedup(b, a.Dedup)
	return wire.AppendUint64(b, a.Sum)
}

func (a *SnapshotReply) decodeWire(r *wire.Reader) {
	a.Snapshot = r.Bytes()
	a.WALSeq = r.Uvarint()
	a.Dedup = readDedup(r)
	a.Sum = r.Uint64()
}

func (a *WALTailArgs) appendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, a.AfterSeq)
	return wire.AppendVarint(b, int64(a.MaxBatches))
}

func (a *WALTailArgs) decodeWire(r *wire.Reader) {
	a.AfterSeq = r.Uvarint()
	a.MaxBatches = int(r.Varint())
}

func (a *WALTailReply) appendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(a.Records)))
	for _, rec := range a.Records {
		b = wire.AppendUvarint(b, rec.Seq)
		b = wire.AppendUvarint(b, rec.ClientID)
		b = wire.AppendUvarint(b, rec.ClientSeq)
		b = appendEvents(b, rec.Events)
	}
	b = wire.AppendUvarint(b, a.EndSeq)
	b = wire.AppendUvarint(b, a.WriterSeq)
	return wire.AppendUint64(b, a.Sum)
}

func (a *WALTailReply) decodeWire(r *wire.Reader) {
	n := r.Count(4)
	if n > 0 {
		a.Records = make([]eventlog.BatchRecord, n)
		for i := range a.Records {
			a.Records[i].Seq = r.Uvarint()
			a.Records[i].ClientID = r.Uvarint()
			a.Records[i].ClientSeq = r.Uvarint()
			a.Records[i].Events = readEvents(r)
		}
	}
	a.EndSeq = r.Uvarint()
	a.WriterSeq = r.Uvarint()
	a.Sum = r.Uint64()
}

// --- routing -------------------------------------------------------------

func (a *RoutingArgs) appendWire(b []byte) []byte { return b }

func (a *RoutingArgs) decodeWire(*wire.Reader) {}

func (a *RoutingReply) appendWire(b []byte) []byte {
	b = wire.AppendBool(b, a.Has)
	return appendShardMap(b, &a.Map)
}

func (a *RoutingReply) decodeWire(r *wire.Reader) {
	a.Has = r.Bool()
	readShardMap(r, &a.Map)
}

func (a *UpdateRoutingArgs) appendWire(b []byte) []byte { return appendShardMap(b, &a.Map) }

func (a *UpdateRoutingArgs) decodeWire(r *wire.Reader) { readShardMap(r, &a.Map) }

func (a *UpdateRoutingReply) appendWire(b []byte) []byte { return wire.AppendUvarint(b, a.Epoch) }

func (a *UpdateRoutingReply) decodeWire(r *wire.Reader) { a.Epoch = r.Uvarint() }

// --- migration -----------------------------------------------------------

func (a *ShardSnapshotArgs) appendWire(b []byte) []byte { return wire.AppendVarint(b, int64(a.Shard)) }

func (a *ShardSnapshotArgs) decodeWire(r *wire.Reader) { a.Shard = int(r.Varint()) }

func (a *ShardSnapshotReply) appendWire(b []byte) []byte {
	b = appendEvents(b, a.Events)
	b = wire.AppendUvarint(b, a.WALSeq)
	b = wire.AppendVarint(b, int64(a.NumShards))
	b = appendDedup(b, a.Dedup)
	return wire.AppendUint64(b, a.Sum)
}

func (a *ShardSnapshotReply) decodeWire(r *wire.Reader) {
	a.Events = readEvents(r)
	a.WALSeq = r.Uvarint()
	a.NumShards = int(r.Varint())
	a.Dedup = readDedup(r)
	a.Sum = r.Uint64()
}

func (a *ShardFeaturesArgs) appendWire(b []byte) []byte { return wire.AppendVarint(b, int64(a.Shard)) }

func (a *ShardFeaturesArgs) decodeWire(r *wire.Reader) { a.Shard = int(r.Varint()) }

func (a *ShardFeaturesReply) appendWire(b []byte) []byte {
	b = appendVertexIDs(b, a.Nodes)
	b = wire.AppendInt32s(b, a.RowLens)
	b = wire.AppendFloat32s(b, a.Data)
	b = wire.AppendInt32s(b, a.Labels)
	b = wire.AppendBools(b, a.HasLabel)
	b = wire.AppendUvarint(b, uint64(len(a.EdgeKeys)))
	for _, k := range a.EdgeKeys {
		b = appendVertexID(b, k.Src)
		b = appendVertexID(b, k.Dst)
		b = append(b, byte(k.Type))
	}
	b = wire.AppendInt32s(b, a.EdgeLens)
	return wire.AppendFloat32s(b, a.EdgeData)
}

func (a *ShardFeaturesReply) decodeWire(r *wire.Reader) {
	a.Nodes = readVertexIDs(r)
	a.RowLens = r.Int32s()
	a.Data = r.Float32s()
	a.Labels = r.Int32s()
	a.HasLabel = r.Bools()
	// Minimum edge key: two 2-byte ids + the type byte.
	n := r.Count(5)
	if n > 0 {
		a.EdgeKeys = make([]kvstore.EdgeKey, n)
		for i := range a.EdgeKeys {
			a.EdgeKeys[i].Src = readVertexID(r)
			a.EdgeKeys[i].Dst = readVertexID(r)
			a.EdgeKeys[i].Type = graph.EdgeType(r.Byte())
		}
	}
	a.EdgeLens = r.Int32s()
	a.EdgeData = r.Float32s()
}

func (a *ParkShardArgs) appendWire(b []byte) []byte {
	b = wire.AppendVarint(b, int64(a.Shard))
	return wire.AppendVarint(b, a.TTLMillis)
}

func (a *ParkShardArgs) decodeWire(r *wire.Reader) {
	a.Shard = int(r.Varint())
	a.TTLMillis = r.Varint()
}

func (a *ParkShardReply) appendWire(b []byte) []byte { return wire.AppendUvarint(b, a.WALSeq) }

func (a *ParkShardReply) decodeWire(r *wire.Reader) { a.WALSeq = r.Uvarint() }

func (a *ReleaseShardArgs) appendWire(b []byte) []byte { return wire.AppendVarint(b, int64(a.Shard)) }

func (a *ReleaseShardArgs) decodeWire(r *wire.Reader) { a.Shard = int(r.Varint()) }

func (a *ReleaseShardReply) appendWire(b []byte) []byte { return b }

func (a *ReleaseShardReply) decodeWire(*wire.Reader) {}

func (a *DropShardArgs) appendWire(b []byte) []byte { return wire.AppendVarint(b, int64(a.Shard)) }

func (a *DropShardArgs) decodeWire(r *wire.Reader) { a.Shard = int(r.Varint()) }

func (a *DropShardReply) appendWire(b []byte) []byte {
	b = wire.AppendVarint(b, a.DroppedEdges)
	return wire.AppendVarint(b, a.DroppedVertices)
}

func (a *DropShardReply) decodeWire(r *wire.Reader) {
	a.DroppedEdges = r.Varint()
	a.DroppedVertices = r.Varint()
}

func (a *PullShardArgs) appendWire(b []byte) []byte {
	b = wire.AppendVarint(b, int64(a.Shard))
	b = wire.AppendString(b, a.Source)
	b = wire.AppendUvarint(b, a.AfterSeq)
	b = wire.AppendUvarint(b, a.UntilSeq)
	b = wire.AppendBool(b, a.Features)
	b = wire.AppendVarint(b, a.CallTimeoutMillis)
	return wire.AppendVarint(b, int64(a.MaxBatches))
}

func (a *PullShardArgs) decodeWire(r *wire.Reader) {
	a.Shard = int(r.Varint())
	a.Source = r.String()
	a.AfterSeq = r.Uvarint()
	a.UntilSeq = r.Uvarint()
	a.Features = r.Bool()
	a.CallTimeoutMillis = r.Varint()
	a.MaxBatches = int(r.Varint())
}

func (a *PullShardReply) appendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, a.EndSeq)
	b = wire.AppendVarint(b, a.Bytes)
	return wire.AppendVarint(b, a.Batches)
}

func (a *PullShardReply) decodeWire(r *wire.Reader) {
	a.EndSeq = r.Uvarint()
	a.Bytes = r.Varint()
	a.Batches = r.Varint()
}

// --- anti-entropy --------------------------------------------------------

func (a *DigestArgs) appendWire(b []byte) []byte {
	b = wire.AppendVarint(b, int64(a.Shard))
	return wire.AppendVarint(b, int64(a.NumShards))
}

func (a *DigestArgs) decodeWire(r *wire.Reader) {
	a.Shard = int(r.Varint())
	a.NumShards = int(r.Varint())
}

func appendDigest(b []byte, d *DigestReply) []byte {
	b = wire.AppendUint64(b, d.Topology)
	b = wire.AppendUint64(b, d.Attrs)
	b = wire.AppendVarint(b, d.NumEdges)
	b = wire.AppendUvarint(b, d.WALSeq)
	b = wire.AppendUvarint(b, d.SyncEpoch)
	return wire.AppendBool(b, d.Ready)
}

func readDigest(r *wire.Reader, d *DigestReply) {
	d.Topology = r.Uint64()
	d.Attrs = r.Uint64()
	d.NumEdges = r.Varint()
	d.WALSeq = r.Uvarint()
	d.SyncEpoch = r.Uvarint()
	d.Ready = r.Bool()
}

func (a *DigestReply) appendWire(b []byte) []byte { return appendDigest(b, a) }

func (a *DigestReply) decodeWire(r *wire.Reader) { readDigest(r, a) }

func (a *AttrsArgs) appendWire(b []byte) []byte { return b }

func (a *AttrsArgs) decodeWire(*wire.Reader) {}

func (a *AttrsReply) appendWire(b []byte) []byte {
	b = a.Attrs.appendWire(b)
	return wire.AppendUint64(b, a.Sum)
}

func (a *AttrsReply) decodeWire(r *wire.Reader) {
	a.Attrs.decodeWire(r)
	a.Sum = r.Uint64()
}

func (a *ScrubArgs) appendWire(b []byte) []byte { return b }

func (a *ScrubArgs) decodeWire(*wire.Reader) {}

func (a *ScrubReply) appendWire(b []byte) []byte {
	rep := &a.Report
	b = wire.AppendVarint(b, rep.DurationNanos)
	b = appendDigest(b, &rep.Local)
	b = wire.AppendUvarint(b, uint64(len(rep.Peers)))
	for i := range rep.Peers {
		p := &rep.Peers[i]
		b = wire.AppendString(b, p.Addr)
		b = wire.AppendString(b, p.Err)
		b = appendDigest(b, &p.Digest)
	}
	b = appendStrings(b, rep.DiskErrors)
	b = wire.AppendBool(b, rep.Diverged)
	b = wire.AppendBool(b, rep.Corrupt)
	b = wire.AppendString(b, rep.RepairPeer)
	b = wire.AppendBool(b, rep.Repaired)
	b = wire.AppendString(b, rep.RepairErr)
	return wire.AppendVarint(b, rep.RepairBytes)
}

func (a *ScrubReply) decodeWire(r *wire.Reader) {
	rep := &a.Report
	rep.DurationNanos = r.Varint()
	readDigest(r, &rep.Local)
	n := r.Count(20)
	if n > 0 {
		rep.Peers = make([]PeerDigest, n)
		for i := range rep.Peers {
			rep.Peers[i].Addr = r.String()
			rep.Peers[i].Err = r.String()
			readDigest(r, &rep.Peers[i].Digest)
		}
	}
	rep.DiskErrors = readStrings(r)
	rep.Diverged = r.Bool()
	rep.Corrupt = r.Bool()
	rep.RepairPeer = r.String()
	rep.Repaired = r.Bool()
	rep.RepairErr = r.String()
	rep.RepairBytes = r.Varint()
}
