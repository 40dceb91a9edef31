// Transport seam between the cluster's call sites (fan-out client, replica
// catch-up, migration pulls, scrubber probes, control-plane round trips)
// and the bytes on the wire. Every RPC goes through a Transport, so the
// codec is a per-connection negotiation instead of a compile-time choice:
// new clients speak the internal/wire binary protocol, and fall back to
// net/rpc + gob when the peer predates it — which is what keeps a
// mixed-version cluster serving during a rolling upgrade.
//
// Application errors cross both transports as rpc.ServerError, so the
// error-classification invariants the retry/failover/rerouting layers rely
// on (Transient, isNotReady, notOwnerEpoch, isChecksumMismatch) hold
// identically whichever codec a connection negotiated.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"sync"
	"syscall"
	"time"

	"platod2gl/internal/wire"
)

// Protocol selects the codec a client negotiates with its peers.
type Protocol int

const (
	// ProtoAuto (the default) speaks the binary wire protocol and falls
	// back to gob when the peer does not answer the handshake — the
	// rolling-upgrade mode.
	ProtoAuto Protocol = iota
	// ProtoWire requires the binary protocol; peers that cannot negotiate
	// it fail the dial.
	ProtoWire
	// ProtoGob forces legacy net/rpc + gob (for talking to old clusters,
	// and for benchmarking the old codec).
	ProtoGob
)

// Transport issues RPCs to one server. Call blocks for at most timeout
// (<= 0: forever); implementations must be safe for concurrent calls.
// Application errors are returned as rpc.ServerError, transport failures as
// anything else (Transient relies on this split).
type Transport interface {
	Call(serviceMethod string, args, reply any, timeout time.Duration) error
	Close() error
}

// callEnv is the admission envelope a call may carry: an explicit priority
// class and the caller's remaining deadline budget. The zero value means
// "no envelope" — the server applies the method's default class.
type callEnv struct {
	pri    Priority
	hasPri bool
	budget time.Duration
}

// envTransport is the optional extension a Transport implements when it can
// carry the protocol-v2 admission envelope. The gob transport does not (a
// legacy peer has no admission gate to read it); call sites type-assert and
// fall back to plain Call.
type envTransport interface {
	CallEnv(serviceMethod string, args, reply any, timeout time.Duration, env callEnv) error
}

// gobTransport is the legacy codec: a multiplexing net/rpc client.
type gobTransport struct {
	rc *rpc.Client
	m  *Metrics
}

func (t *gobTransport) Call(method string, args, reply any, d time.Duration) error {
	if d <= 0 {
		return t.rc.Call(method, args, reply)
	}
	// rpc.Client.Go writes the request synchronously before returning, so a
	// partitioned (blackholed) connection would block it forever — the whole
	// attempt runs in a goroutine and only the select enforces the deadline.
	// On timeout the caller tears the transport down (peer.fail), which
	// unblocks the stuck write and completes the abandoned call with an
	// error. The encoder-inflight count lets pooling layers know an
	// abandoned goroutine may still be reading the args (see encBusy).
	done := make(chan error, 1)
	t.m.encAdd(1)
	go func() {
		defer t.m.encAdd(-1)
		call := t.rc.Go(method, args, reply, make(chan *rpc.Call, 1))
		<-call.Done
		done <- call.Error
	}()
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return ErrCallTimeout
	case err := <-done:
		return err
	}
}

func (t *gobTransport) Close() error { return t.rc.Close() }

// wireConn is one handshaked binary-protocol connection carrying a single
// outstanding call at a time.
type wireConn struct {
	conn    net.Conn
	version byte
}

// wireTransport pools handshaked connections to one server. Concurrency
// comes from the pool (each in-flight call owns a connection), not from
// multiplexing — which keeps frames sequence-number-free and makes a
// timeout's blast radius a single connection.
type wireTransport struct {
	dial    Dialer
	version byte
	maxVer  byte // handshake cap (Options.MaxWireVersion); 0 = wire.Version
	m       *Metrics
	hsTO    time.Duration
	lim     *aimdLimiter // per-peer adaptive concurrency; nil = unlimited

	mu     sync.Mutex
	idle   []*wireConn
	closed bool
}

// maxIdleWireConns bounds the per-server pool; beyond it, finished
// connections are closed rather than kept.
const maxIdleWireConns = 8

var errTransportClosed = errors.New("cluster: transport closed")

// get pops an idle connection or handshakes a fresh one.
func (t *wireTransport) get() (*wireConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errTransportClosed
	}
	if n := len(t.idle); n > 0 {
		wc := t.idle[n-1]
		t.idle = t.idle[:n-1]
		t.mu.Unlock()
		return wc, nil
	}
	t.mu.Unlock()
	conn, err := t.dial()
	if err != nil {
		return nil, err
	}
	ver, err := clientHandshake(conn, t.hsTO, t.maxVer)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: wire handshake: %w", err)
	}
	return &wireConn{conn: conn, version: ver}, nil
}

// put returns a healthy connection to the pool.
func (t *wireTransport) put(wc *wireConn) {
	t.mu.Lock()
	if !t.closed && len(t.idle) < maxIdleWireConns {
		t.idle = append(t.idle, wc)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	wc.conn.Close()
}

func (t *wireTransport) Close() error {
	t.mu.Lock()
	idle := t.idle
	t.idle = nil
	t.closed = true
	t.mu.Unlock()
	for _, wc := range idle {
		wc.conn.Close()
	}
	return nil
}

// Call encodes args, performs one request/response exchange, and decodes
// into reply. Encode and decode both happen synchronously in the caller: so
// callers may recycle args-backing buffers once Call returns, and a
// timed-out attempt never touches reply (so callers may retry into the same
// reply struct, or one that decodes into their own buffers, without racing
// an abandoned exchange).
func (t *wireTransport) Call(method string, args, reply any, d time.Duration) error {
	return t.CallEnv(method, args, reply, d, callEnv{})
}

// CallEnv is Call carrying the admission envelope. The call first claims a
// slot under the peer's adaptive concurrency limit — waiting at most the
// smaller of the call timeout and the remaining budget — so a client facing
// a saturated peer queues locally (cheap) instead of remotely (a held
// connection and an admission-queue seat).
func (t *wireTransport) CallEnv(method string, args, reply any, d time.Duration, env callEnv) error {
	if t.lim != nil {
		maxWait := d
		if env.budget > 0 && env.budget < maxWait {
			maxWait = env.budget
		}
		if err := t.lim.acquire(maxWait); err != nil {
			return err
		}
		err := t.callEnv(method, args, reply, d, env)
		t.lim.release(errors.Is(err, ErrCallTimeout) || IsOverloaded(err))
		return err
	}
	return t.callEnv(method, args, reply, d, env)
}

func (t *wireTransport) callEnv(method string, args, reply any, d time.Duration, env callEnv) error {
	wa, ok := args.(wireMessage)
	if !ok {
		return fmt.Errorf("cluster: %T does not implement the wire codec", args)
	}
	if _, ok := reply.(wireMessage); !ok {
		return fmt.Errorf("cluster: %T does not implement the wire codec", reply)
	}
	id, ok := wireMethodID[method]
	if !ok {
		return fmt.Errorf("cluster: unknown wire method %q", method)
	}
	wc, err := t.get()
	if err != nil {
		return err
	}
	// The envelope kind exists only in protocol v2; on a v1-negotiated
	// connection the call degrades to a bare request — exactly the
	// "negotiate down to today's behavior" contract.
	frame := frameBuf(2+2*binary.MaxVarintLen64, wa) // kind, priority, budget, method id
	if wc.version >= 2 && (env.hasPri || env.budget > 0) {
		frame = append(frame, wire.KindRequestEnv)
		if env.hasPri {
			frame = append(frame, byte(env.pri)+1)
		} else {
			frame = append(frame, 0) // method-default sentinel
		}
		ms := uint64(env.budget / time.Millisecond)
		if ms == 0 && env.budget > 0 {
			ms = 1
		}
		frame = wire.AppendUvarint(frame, ms)
	} else {
		frame = append(frame, wire.KindRequest)
	}
	frame = wire.AppendUvarint(frame, uint64(id))
	frame = wa.appendWire(frame)

	if d <= 0 {
		resp, err := exchangeWire(wc, frame)
		wire.PutBuf(frame)
		if err == nil {
			err = decodeWireResponse(resp, reply.(wireMessage))
		}
		t.finish(wc, err)
		return err
	}
	// The exchange runs in a goroutine so a blackholed connection cannot
	// outlive the deadline (conns may be wrapped — fault injection, pipes —
	// so SetDeadline is not universally honored; closing the conn is). Only
	// the winner of the select decodes, so an abandoned attempt never
	// writes the caller's reply.
	type result struct {
		resp []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := exchangeWire(wc, frame)
		wire.PutBuf(frame)
		done <- result{resp, err}
	}()
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		wc.conn.Close() // unblocks the goroutine; the conn is not reusable
		return ErrCallTimeout
	case res := <-done:
		err := res.err
		if err == nil {
			err = decodeWireResponse(res.resp, reply.(wireMessage))
		}
		t.finish(wc, err)
		return err
	}
}

// finish recycles or discards the connection depending on how the exchange
// ended: application errors leave a healthy framing stream, transport
// errors do not.
func (t *wireTransport) finish(wc *wireConn, err error) {
	var serverErr rpc.ServerError
	if err == nil || errors.As(err, &serverErr) {
		t.put(wc)
		return
	}
	wc.conn.Close()
}

// exchangeWire writes one request frame and reads the response frame (a
// pooled buffer for decodeWireResponse).
func exchangeWire(wc *wireConn, frame []byte) ([]byte, error) {
	if err := wire.WriteFrame(wc.conn, frame); err != nil {
		return nil, fmt.Errorf("cluster: wire write: %w", err)
	}
	resp, err := wire.ReadFrame(wc.conn)
	if err != nil {
		return nil, fmt.Errorf("cluster: wire read: %w", err)
	}
	return resp, nil
}

// decodeWireResponse decodes a response frame into reply, or returns the
// error frame it carries, and recycles the frame.
func decodeWireResponse(resp []byte, reply wireMessage) error {
	defer wire.PutBuf(resp)
	if len(resp) == 0 {
		return errors.New("cluster: empty wire response")
	}
	kind, body := resp[0], resp[1:]
	switch kind {
	case wire.KindResponse:
		r := wire.NewReader(body)
		reply.decodeWire(r)
		if err := r.Done(); err != nil {
			return fmt.Errorf("cluster: decode %T: %w", reply, err)
		}
		return nil
	case wire.KindError:
		r := wire.NewReader(body)
		msg := r.String()
		if err := r.Done(); err != nil {
			return fmt.Errorf("cluster: decode error frame: %w", err)
		}
		return rpc.ServerError(msg)
	default:
		return fmt.Errorf("cluster: unexpected frame kind 0x%02x", kind)
	}
}

// clientHandshake negotiates the wire protocol on a fresh connection,
// bounded by timeout via close-on-timer (deadline-free for wrapped conns).
// maxVer caps the advertised range (Options.MaxWireVersion); 0 means the
// newest we speak.
func clientHandshake(conn net.Conn, timeout time.Duration, maxVer byte) (byte, error) {
	if maxVer == 0 || maxVer > wire.Version {
		maxVer = wire.Version
	}
	exchange := func() (byte, error) {
		h := wire.Hello(1, maxVer)
		if _, err := conn.Write(h[:]); err != nil {
			return 0, err
		}
		var ack [8]byte
		if _, err := io.ReadFull(conn, ack[:]); err != nil {
			return 0, err
		}
		ver, err := wire.ParseAck(ack)
		if err != nil {
			return 0, err
		}
		if ver == 0 {
			return 0, fmt.Errorf("%w: server rejected versions [1,%d]", wire.ErrBadHandshake, maxVer)
		}
		return ver, nil
	}
	if timeout <= 0 {
		return exchange()
	}
	type result struct {
		ver byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		ver, err := exchange()
		done <- result{ver, err}
	}()
	tm := time.NewTimer(timeout)
	defer tm.Stop()
	select {
	case <-tm.C:
		conn.Close()
		return 0, fmt.Errorf("cluster: wire handshake: %w", ErrCallTimeout)
	case res := <-done:
		return res.ver, res.err
	}
}

// peerClosedDuringHandshake classifies handshake failures that mean "the
// peer shut the connection on our hello" — the signature of a legacy gob
// server choking on wire magic — as opposed to timeouts or dial failures,
// which mean the peer is unreachable and gob would hang just the same.
func peerClosedDuringHandshake(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// dialTransport establishes a Transport to one server under the given
// protocol policy. In ProtoAuto mode a failed wire handshake whose failure
// signature says "old gob server" triggers a negotiate-down: redial and
// speak legacy gob (counted in WireNegotiateDowns). The next redial probes
// wire again, so a peer upgraded mid-rolling-restart is picked back up.
// maxVer caps the advertised protocol range (0 = newest).
func dialTransport(dial Dialer, proto Protocol, hsTimeout time.Duration, m *Metrics, maxVer byte) (Transport, error) {
	if proto == ProtoGob {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return &gobTransport{rc: rpc.NewClient(conn), m: m}, nil
	}
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ver, err := clientHandshake(conn, hsTimeout, maxVer)
	if err != nil {
		conn.Close()
		if proto == ProtoAuto && peerClosedDuringHandshake(err) {
			m.incNegotiateDown()
			conn2, derr := dial()
			if derr != nil {
				return nil, derr
			}
			return &gobTransport{rc: rpc.NewClient(conn2), m: m}, nil
		}
		return nil, err
	}
	m.observeClientCall("Handshake", start)
	m.incWireHandshake()
	t := &wireTransport{dial: dial, version: ver, maxVer: maxVer, m: m, hsTO: hsTimeout,
		lim: newAIMDLimiter(m)}
	t.idle = append(t.idle, &wireConn{conn: conn, version: ver})
	return t, nil
}
