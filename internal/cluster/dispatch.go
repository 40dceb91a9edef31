// Server-side transport seam: one accept loop that serves both codecs. The
// first four bytes of a connection decide its fate — the wire magic opens a
// version-negotiated binary-protocol session, anything else is replayed into
// a legacy net/rpc gob session — so a mixed-version cluster (old clients,
// new server) keeps working through a rolling upgrade with zero
// configuration.
//
// The wireMethods table is the binary protocol's method numbering. Ids are
// frame-level protocol surface: APPEND ONLY — reordering or removing entries
// breaks every peer speaking protocol version 1.
package cluster

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"sync"
	"time"

	"platod2gl/internal/wire"
)

// wireMethod is one dispatchable RPC in the binary protocol: its short name
// (the metrics label), typed constructors for the arg/reply structs, and the
// bridge into the Service handler.
type wireMethod struct {
	name     string
	newArgs  func() wireMessage
	newReply func() wireMessage
	invoke   func(s *Service, args, reply wireMessage) error
}

// wireMethodPriorities assigns each method its default admission class.
// Latency-sensitive reads a training step or online lookup blocks on are
// interactive; bulk ingest and feature writes are prefetch; replication,
// migration, scrub, and control-plane traffic is background. Kept as a
// separate table (rather than widening every literal below) so the
// classification is reviewable at a glance.
var wireMethodPriorities = map[string]Priority{
	"ApplyBatch":         PriorityPrefetch,
	"SampleNeighbors":    PriorityInteractive,
	"Degree":             PriorityInteractive,
	"Features":           PriorityInteractive,
	"SetFeatures":        PriorityPrefetch,
	"Sources":            PriorityInteractive,
	"Stats":              PriorityInteractive,
	"FetchSnapshot":      PriorityBackground,
	"FetchWALTail":       PriorityBackground,
	"SyncState":          PriorityBackground,
	"Routing":            PriorityInteractive,
	"UpdateRouting":      PriorityBackground,
	"FetchShardSnapshot": PriorityBackground,
	"FetchShardFeatures": PriorityBackground,
	"ParkShard":          PriorityBackground,
	"ReleaseShard":       PriorityBackground,
	"DropShard":          PriorityBackground,
	"PullShard":          PriorityBackground,
	"ShardDigest":        PriorityBackground,
	"Scrub":              PriorityBackground,
	"FetchAttrs":         PriorityBackground,
}

// admissionExempt lists the control-plane methods that bypass the admission
// gate. They are tiny, rare, and — critically — the very RPCs that relieve
// a saturated or mid-migration server: shedding them turns transient
// overload into a self-sustaining outage. The concrete inversion the chaos
// drill caught: writers parked on a migrating shard pin their handler slots,
// the pinned slots starve the background class, and the background class
// then sheds the ReleaseShard that would unpark the writers — a deadlock
// only the park TTL escapes. The data-moving migration RPCs (snapshots, WAL
// tails, pulls) stay gated; only the control plane is exempt.
var admissionExempt = map[string]bool{
	"Routing":       true,
	"UpdateRouting": true,
	"ParkShard":     true,
	"ReleaseShard":  true,
	"SyncState":     true,
}

// wireMethods assigns each method its frame id (the slice index). Append
// only; ids are wire-protocol surface.
var wireMethods = []wireMethod{
	{"ApplyBatch",
		func() wireMessage { return new(BatchArgs) },
		func() wireMessage { return new(BatchReply) },
		func(s *Service, a, r wireMessage) error { return s.ApplyBatch(a.(*BatchArgs), r.(*BatchReply)) }},
	{"SampleNeighbors",
		func() wireMessage { return new(SampleArgs) },
		func() wireMessage { return new(SampleReply) },
		func(s *Service, a, r wireMessage) error {
			return s.SampleNeighbors(a.(*SampleArgs), r.(*SampleReply))
		}},
	{"Degree",
		func() wireMessage { return new(DegreeArgs) },
		func() wireMessage { return new(DegreeReply) },
		func(s *Service, a, r wireMessage) error { return s.Degree(a.(*DegreeArgs), r.(*DegreeReply)) }},
	{"Features",
		func() wireMessage { return new(FeatureArgs) },
		func() wireMessage { return new(FeatureReply) },
		func(s *Service, a, r wireMessage) error { return s.features(a.(*FeatureArgs), r.(*FeatureReply)) }},
	{"SetFeatures",
		func() wireMessage { return new(SetFeaturesArgs) },
		func() wireMessage { return new(SetFeaturesReply) },
		func(s *Service, a, r wireMessage) error {
			return s.SetFeatures(a.(*SetFeaturesArgs), r.(*SetFeaturesReply))
		}},
	{"Sources",
		func() wireMessage { return new(SourcesArgs) },
		func() wireMessage { return new(SourcesReply) },
		func(s *Service, a, r wireMessage) error { return s.Sources(a.(*SourcesArgs), r.(*SourcesReply)) }},
	{"Stats",
		func() wireMessage { return new(StatsArgs) },
		func() wireMessage { return new(StatsReply) },
		func(s *Service, a, r wireMessage) error { return s.Stats(a.(*StatsArgs), r.(*StatsReply)) }},
	{"FetchSnapshot",
		func() wireMessage { return new(SnapshotArgs) },
		func() wireMessage { return new(SnapshotReply) },
		func(s *Service, a, r wireMessage) error {
			return s.FetchSnapshot(a.(*SnapshotArgs), r.(*SnapshotReply))
		}},
	{"FetchWALTail",
		func() wireMessage { return new(WALTailArgs) },
		func() wireMessage { return new(WALTailReply) },
		func(s *Service, a, r wireMessage) error {
			return s.FetchWALTail(a.(*WALTailArgs), r.(*WALTailReply))
		}},
	{"SyncState",
		func() wireMessage { return new(SyncStateArgs) },
		func() wireMessage { return new(SyncStateReply) },
		func(s *Service, a, r wireMessage) error {
			return s.SyncState(a.(*SyncStateArgs), r.(*SyncStateReply))
		}},
	{"Routing",
		func() wireMessage { return new(RoutingArgs) },
		func() wireMessage { return new(RoutingReply) },
		func(s *Service, a, r wireMessage) error { return s.Routing(a.(*RoutingArgs), r.(*RoutingReply)) }},
	{"UpdateRouting",
		func() wireMessage { return new(UpdateRoutingArgs) },
		func() wireMessage { return new(UpdateRoutingReply) },
		func(s *Service, a, r wireMessage) error {
			return s.UpdateRouting(a.(*UpdateRoutingArgs), r.(*UpdateRoutingReply))
		}},
	{"FetchShardSnapshot",
		func() wireMessage { return new(ShardSnapshotArgs) },
		func() wireMessage { return new(ShardSnapshotReply) },
		func(s *Service, a, r wireMessage) error {
			return s.FetchShardSnapshot(a.(*ShardSnapshotArgs), r.(*ShardSnapshotReply))
		}},
	{"FetchShardFeatures",
		func() wireMessage { return new(ShardFeaturesArgs) },
		func() wireMessage { return new(ShardFeaturesReply) },
		func(s *Service, a, r wireMessage) error {
			return s.FetchShardFeatures(a.(*ShardFeaturesArgs), r.(*ShardFeaturesReply))
		}},
	{"ParkShard",
		func() wireMessage { return new(ParkShardArgs) },
		func() wireMessage { return new(ParkShardReply) },
		func(s *Service, a, r wireMessage) error {
			return s.ParkShard(a.(*ParkShardArgs), r.(*ParkShardReply))
		}},
	{"ReleaseShard",
		func() wireMessage { return new(ReleaseShardArgs) },
		func() wireMessage { return new(ReleaseShardReply) },
		func(s *Service, a, r wireMessage) error {
			return s.ReleaseShard(a.(*ReleaseShardArgs), r.(*ReleaseShardReply))
		}},
	{"DropShard",
		func() wireMessage { return new(DropShardArgs) },
		func() wireMessage { return new(DropShardReply) },
		func(s *Service, a, r wireMessage) error {
			return s.DropShard(a.(*DropShardArgs), r.(*DropShardReply))
		}},
	{"PullShard",
		func() wireMessage { return new(PullShardArgs) },
		func() wireMessage { return new(PullShardReply) },
		func(s *Service, a, r wireMessage) error {
			return s.PullShard(a.(*PullShardArgs), r.(*PullShardReply))
		}},
	{"ShardDigest",
		func() wireMessage { return new(DigestArgs) },
		func() wireMessage { return new(DigestReply) },
		func(s *Service, a, r wireMessage) error {
			return s.ShardDigest(a.(*DigestArgs), r.(*DigestReply))
		}},
	{"Scrub",
		func() wireMessage { return new(ScrubArgs) },
		func() wireMessage { return new(ScrubReply) },
		func(s *Service, a, r wireMessage) error { return s.Scrub(a.(*ScrubArgs), r.(*ScrubReply)) }},
	{"FetchAttrs",
		func() wireMessage { return new(AttrsArgs) },
		func() wireMessage { return new(AttrsReply) },
		func(s *Service, a, r wireMessage) error { return s.FetchAttrs(a.(*AttrsArgs), r.(*AttrsReply)) }},
}

// wireMethodID maps the fully-qualified method name ("PlatoD2GL.Stats", the
// form every call site already uses) to its frame id.
var wireMethodID = make(map[string]int, len(wireMethods))

// wireMethodPri is the per-id default admission class, resolved from
// wireMethodPriorities at init — used when a request carries no envelope
// (bare v1 frames, or an envelope whose priority byte is the "method
// default" sentinel 0).
var wireMethodPri = make([]Priority, len(wireMethods))

// wireMethodExempt is admissionExempt resolved to frame ids.
var wireMethodExempt = make([]bool, len(wireMethods))

func init() {
	for i, m := range wireMethods {
		wireMethodID[ServiceName+"."+m.name] = i
		wireMethodPri[i] = wireMethodPriorities[m.name]
		wireMethodExempt[i] = admissionExempt[m.name]
	}
}

// serveConn sniffs the codec from the first bytes of a fresh connection and
// serves it to completion: wire magic opens a binary-protocol session,
// anything else (in practice a gob length prefix, which can never start with
// the 0x00 magic byte) replays into a legacy net/rpc session. The sniff +
// negotiation phase runs under a handshake token and read deadline when
// ServerLimits configures them, so silent or slow-connecting peers cannot
// pin unbounded accept-side resources.
func (s *Server) serveConn(conn net.Conn) {
	hsDone := func() {}
	if s.hsSem != nil {
		select {
		case s.hsSem <- struct{}{}:
			var once sync.Once
			hsDone = func() { once.Do(func() { <-s.hsSem }) }
		default:
			s.svc.metrics.incConnRejected()
			conn.Close()
			return
		}
	}
	defer hsDone()
	if to := s.limits.HandshakeTimeout; to > 0 {
		conn.SetReadDeadline(time.Now().Add(to))
	}
	var prefix [4]byte
	if _, err := io.ReadFull(conn, prefix[:]); err != nil {
		conn.Close()
		return
	}
	if prefix == wire.Magic {
		s.serveWire(conn, hsDone)
		return
	}
	if s.limits.HandshakeTimeout > 0 {
		conn.SetReadDeadline(time.Time{})
	}
	hsDone()
	s.svc.metrics.incGobFallback()
	rwc := &replayConn{Reader: io.MultiReader(bytes.NewReader(prefix[:]), conn), conn: conn}
	s.rpcServer.ServeCodec(newCountingGobCodec(rwc, s.svc.metrics))
}

// serveWire completes the handshake (the magic is already consumed) and then
// serves request frames until the connection dies. One frame at a time per
// connection; concurrency comes from the client's connection pool. hsDone
// releases the handshake token once negotiation finishes (either way).
func (s *Server) serveWire(conn net.Conn, hsDone func()) {
	defer conn.Close()
	hsStart := time.Now()
	var hello [8]byte
	copy(hello[:4], wire.Magic[:])
	if _, err := io.ReadFull(conn, hello[4:]); err != nil {
		return
	}
	minVer, maxVer, err := wire.ParseHello(hello)
	if err != nil {
		return
	}
	ver := wire.NegotiateCapped(minVer, maxVer, s.maxWireVersion())
	ack := wire.Ack(ver)
	if _, err := conn.Write(ack[:]); err != nil || ver == 0 {
		// ver == 0: no overlapping version range (a future-only client);
		// the ack tells it so before we hang up.
		return
	}
	if s.limits.HandshakeTimeout > 0 {
		conn.SetReadDeadline(time.Time{})
	}
	hsDone()
	m := s.svc.metrics
	m.incWireHandshake()
	m.observeServed("Handshake", hsStart)
	m.observePayload("Handshake", 16) // hello + ack, both 8 bytes
	for {
		req, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		reqBytes := int64(len(req)) + 4
		resp, method := s.handleWireFrame(req, ver)
		wire.PutBuf(req)
		// Record before writing: once the reply is on the wire the client
		// may return and read the payload metric.
		if method != "" {
			m.observePayload(method, reqBytes+int64(len(resp))+4)
		}
		err = wire.WriteFrame(conn, resp)
		wire.PutBuf(resp)
		if err != nil {
			return
		}
	}
}

// handleWireFrame decodes one request frame, runs it through the admission
// gate, invokes the handler, and encodes the response (or error) frame. ver
// is the connection's negotiated protocol version: envelope frames
// (KindRequestEnv) are only legal on v2+ connections, so a version-1 peer
// can never smuggle priority or budget metadata the negotiation said it
// would not send. It never panics: corrupt frames fail the bounds-checked
// reader, and a recover backstop converts anything that slips through into
// an error frame so one bad request cannot kill the connection loop with a
// half-written frame.
func (s *Server) handleWireFrame(req []byte, ver byte) (resp []byte, method string) {
	fail := func(msg string) []byte {
		b := wire.GetBuf(0)
		b = append(b, wire.KindError)
		return wire.AppendString(b, msg)
	}
	defer func() {
		if p := recover(); p != nil {
			resp = fail(fmt.Sprintf("cluster: %s: internal error: %v", method, p))
		}
	}()
	if len(req) == 0 {
		return fail("cluster: malformed request frame"), ""
	}
	r := wire.NewReader(req[1:])
	var pri Priority
	var hasPri bool
	var budget time.Duration
	switch req[0] {
	case wire.KindRequest:
	case wire.KindRequestEnv:
		if ver < 2 {
			return fail("cluster: envelope frame on a version-1 connection"), ""
		}
		pb := r.Byte()
		budget = time.Duration(r.Uvarint()) * time.Millisecond
		if r.Err() != nil {
			return fail("cluster: malformed request envelope"), ""
		}
		if pb > 0 {
			if pb > numPriorities {
				return fail("cluster: unknown priority class"), ""
			}
			pri = Priority(pb - 1)
			hasPri = true
		}
	default:
		return fail("cluster: malformed request frame"), ""
	}
	id := r.Uvarint()
	if r.Err() != nil || id >= uint64(len(wireMethods)) {
		return fail("cluster: unknown wire method id"), ""
	}
	wm := wireMethods[id]
	method = wm.name
	if !hasPri {
		pri = wireMethodPri[id]
	}
	if !wireMethodExempt[id] {
		if err := s.admit.acquire(wm.name, pri, budget); err != nil {
			// Shed or fast-rejected: the error frame carries the typed message
			// (retry-after hint included) back to the client's classifiers.
			return fail(err.Error()), method
		}
		defer s.admit.release(wm.name, time.Now())
	}
	args := wm.newArgs()
	args.decodeWire(r)
	if err := r.Done(); err != nil {
		return fail(fmt.Sprintf("cluster: decode %s args: %v", wm.name, err)), method
	}
	reply := wm.newReply()
	if err := wm.invoke(s.svc, args, reply); err != nil {
		// Handler errors cross as error frames and resurface client-side as
		// rpc.ServerError — same classification as the gob transport.
		return fail(err.Error()), method
	}
	b := frameBuf(1, reply)
	b = append(b, wire.KindResponse)
	return reply.appendWire(b), method
}

// replayConn splices already-sniffed bytes back in front of a connection's
// read stream for the gob fallback path.
type replayConn struct {
	io.Reader
	conn net.Conn
}

func (r *replayConn) Write(p []byte) (int, error) { return r.conn.Write(p) }
func (r *replayConn) Close() error                { return r.conn.Close() }

// countReader / countWriter meter exact bytes through the gob codec so the
// fallback path reports true wire payload sizes, not approximations.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// countingGobCodec is net/rpc's stock gob ServerCodec plus byte metering:
// request bytes are measured across header+body reads, parked by sequence
// number (net/rpc pipelines reads ahead of writes), and attributed together
// with the response bytes when the reply for that sequence flushes.
type countingGobCodec struct {
	rwc    io.ReadWriteCloser
	cr     *countReader
	cw     *countWriter
	dec    *gob.Decoder
	enc    *gob.Encoder
	encBuf *bufio.Writer
	m      *Metrics

	readStart  int64  // cr.n when the current request's header began
	readSeq    uint64 // sequence of the request being read
	readMethod string

	mu      sync.Mutex
	pending map[uint64]pendingGobReq
	closed  bool
}

type pendingGobReq struct {
	method   string
	reqBytes int64
}

func newCountingGobCodec(rwc io.ReadWriteCloser, m *Metrics) *countingGobCodec {
	cr := &countReader{r: rwc}
	buf := bufio.NewWriter(nil)
	cw := &countWriter{w: rwc}
	buf.Reset(cw)
	return &countingGobCodec{
		rwc:     rwc,
		cr:      cr,
		cw:      cw,
		dec:     gob.NewDecoder(cr),
		enc:     gob.NewEncoder(buf),
		encBuf:  buf,
		m:       m,
		pending: make(map[uint64]pendingGobReq),
	}
}

func (c *countingGobCodec) ReadRequestHeader(r *rpc.Request) error {
	c.readStart = c.cr.n
	if err := c.dec.Decode(r); err != nil {
		return err
	}
	c.readSeq = r.Seq
	c.readMethod = shortMethod(r.ServiceMethod)
	return nil
}

func (c *countingGobCodec) ReadRequestBody(body any) error {
	if err := c.dec.Decode(body); err != nil {
		return err
	}
	c.mu.Lock()
	c.pending[c.readSeq] = pendingGobReq{method: c.readMethod, reqBytes: c.cr.n - c.readStart}
	c.mu.Unlock()
	return nil
}

func (c *countingGobCodec) WriteResponse(r *rpc.Response, body any) error {
	// net/rpc serializes WriteResponse calls under its sending mutex, so the
	// write counter needs no extra locking; only the pending map is shared
	// with the read goroutine.
	start := c.cw.n
	if err := c.enc.Encode(r); err != nil {
		c.encBuf.Flush()
		return err
	}
	if err := c.enc.Encode(body); err != nil {
		c.encBuf.Flush()
		return err
	}
	if err := c.encBuf.Flush(); err != nil {
		return err
	}
	c.mu.Lock()
	req, ok := c.pending[r.Seq]
	delete(c.pending, r.Seq)
	c.mu.Unlock()
	if ok {
		c.m.observePayload(req.method, req.reqBytes+(c.cw.n-start))
	}
	return nil
}

func (c *countingGobCodec) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.rwc.Close()
}
