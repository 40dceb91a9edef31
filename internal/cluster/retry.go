// Fault-tolerant call path for the cluster client: per-call timeouts on top
// of rpc.Client.Go, exponential backoff with jitter, bounded retries for
// idempotent calls, and automatic redial of dead peers through a pluggable
// Dialer. The paper's deployment (54 storage servers under continuous
// training traffic, Sec. VI) makes slow or crashed shards an expected
// condition, not an exception: without this layer one wedged shard stalls
// every training step forever.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/rpc"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCallTimeout is returned when a single RPC attempt exceeds
// Options.CallTimeout. The underlying connection is torn down (the reply
// could arrive arbitrarily late and must not be mistaken for a later
// call's), so the next attempt redials.
var ErrCallTimeout = errors.New("cluster: rpc call timed out")

// Dialer establishes a transport to one graph server. The client invokes it
// on first use and again whenever the previous connection died, so it must
// be safe to call repeatedly.
type Dialer func() (net.Conn, error)

// TCPDialer returns a Dialer for addr with a connect timeout.
func TCPDialer(addr string, timeout time.Duration) Dialer {
	return func() (net.Conn, error) {
		if timeout <= 0 {
			return net.Dial("tcp", addr)
		}
		return net.DialTimeout("tcp", addr, timeout)
	}
}

// Options tune the client's fault-tolerance behavior. The zero value means
// "legacy": no timeouts, no retries, no breaker, fail the whole fan-out on
// the first shard error — exactly the pre-fault-tolerance client.
// DefaultOptions is the production starting point.
type Options struct {
	// CallTimeout bounds each RPC attempt. 0 disables (not recommended:
	// a partitioned peer then blocks forever).
	CallTimeout time.Duration
	// MaxRetries is the number of additional attempts after the first, for
	// idempotent calls (SampleNeighbors, Degree, Features, Stats,
	// SetFeatures) and for ApplyBatch, whose at-most-once batch sequence
	// numbers make retries safe. 0 disables retries.
	MaxRetries int
	// RetryBaseDelay scales the backoff before the first retry; the
	// exponential ceiling doubles per retry up to RetryMaxDelay, and each
	// delay is drawn uniformly from [0, ceiling) — "full jitter", which
	// decorrelates the retry times of the many clients that all failed at
	// the same instant (a partition heal, a server restart) instead of
	// having them re-arrive in synchronized waves.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// BreakerThreshold consecutive transport failures open a peer's circuit
	// breaker; while open, calls to that peer fail fast. <= 0 disables.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects calls before
	// letting a probe through.
	BreakerCooldown time.Duration
	// Degraded enables graceful degradation for sampling fan-outs: if a
	// shard is down, SampleNeighbors fills its slots with the seed itself
	// (the protocol's existing fallback for unknown vertices) and reports
	// the failure in a FanoutReport instead of failing the whole batch.
	// With replica groups, degradation only engages after every replica of
	// a shard has failed — a single replica loss is absorbed by failover
	// and never degrades results.
	Degraded bool
	// Replicas is the replica-group size R. The peer list is grouped
	// consecutively: logical shard s owns peers [s*R, (s+1)*R). Writes fan
	// out to every replica of the owning shard (converging through the
	// at-most-once batch identity); reads rotate across live replicas and
	// fail over on timeout, circuit-open, or a replica that is still
	// catching up. 0 or 1 means unreplicated (every peer is its own shard).
	Replicas int
	// DialServer, if set, builds the transport to a server address when the
	// client meets one it has no dialer for — which happens when an adopted
	// shard map (see shardmap.go) lists a server that joined after the
	// client dialed. Defaults to TCP with CallTimeout as the connect
	// timeout; in-process clusters plug their pipe factory in here.
	DialServer func(addr string) Dialer
	// Protocol selects the codec negotiated with peers: ProtoAuto (default)
	// probes the binary wire protocol and falls back to gob per peer,
	// ProtoWire requires it, ProtoGob forces legacy gob. See transport.go.
	Protocol Protocol
	// MaxWireVersion caps the wire-protocol version advertised in the
	// handshake — a rollback hook (pin a cluster to v1 if a v2 feature
	// misbehaves) and the lever interop tests use to stand up a v1 client
	// from current code. 0 advertises the newest version.
	MaxWireVersion byte
	// Metrics, if set, receives fault-tolerance counters (attempts,
	// timeouts, retries, breaker opens, failovers, catch-up traffic). May
	// be shared with a Service and published via expvar.
	Metrics *Metrics
	// Seed seeds the retry-jitter RNG and the client's dedup identity.
	// 0 draws an unpredictable seed.
	Seed int64
}

// DefaultOptions are sane production defaults: 2s per-attempt timeout,
// 4 retries starting at 25ms backoff, breaker at 5 failures / 1s cooldown.
func DefaultOptions() Options {
	return Options{
		CallTimeout:      2 * time.Second,
		MaxRetries:       4,
		RetryBaseDelay:   25 * time.Millisecond,
		RetryMaxDelay:    time.Second,
		BreakerThreshold: 5,
		BreakerCooldown:  time.Second,
	}
}

// peer is one replica endpoint: its current RPC connection (if any), the
// dialer that can replace it, its circuit breaker, and the client-side
// staleness tracking that keeps a replica which missed one of our writes
// out of the read rotation until it has demonstrably re-synced.
type peer struct {
	idx     int    // global peer index
	shard   int    // logical shard this replica belongs to (legacy placement)
	replica int    // position within the replica group
	addr    string // advertised server address; "" for conn-only legacy peers
	dial    Dialer // nil: no redial — a dead connection stays dead (legacy mode)
	br      *breaker

	// stale is set when a write fan-out could not reach this replica while
	// a sibling acknowledged it: the replica may be missing data, so reads
	// skip it. staleEpoch records the replica's sync epoch observed at (or
	// nearest after) the miss; the peer re-enters the rotation only when a
	// SyncState probe reports Ready with a different epoch — i.e. it
	// completed a catch-up — or, when no epoch could be observed (the
	// typical crashed-replica case), with any ready state, since a
	// replicated server always catches up before declaring itself ready.
	stale      atomic.Bool
	staleEpoch atomic.Uint64
	lastProbe  atomic.Int64 // unix nanos of the last stale probe, rate-limiting

	mu sync.Mutex
	tc Transport
}

// transportFor returns peer p's established transport, dialing (and codec
// handshaking, per Options.Protocol) if necessary.
func (c *Client) transportFor(p *peer) (Transport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.tc != nil {
		return p.tc, nil
	}
	if p.dial == nil {
		return nil, fmt.Errorf("cluster: peer %d: connection closed and no dialer configured", p.idx)
	}
	t, err := dialTransport(p.dial, c.opts.Protocol, c.opts.CallTimeout, c.metrics, c.opts.MaxWireVersion)
	if err != nil {
		return nil, fmt.Errorf("cluster: redial peer %d: %w", p.idx, err)
	}
	p.tc = t
	return t, nil
}

// fail discards tc if it is still the peer's current transport, closing it
// so any stuck goroutines unblock. Safe to call with an already-replaced
// transport: a concurrent call that failed on the old one must not kill the
// new one. The next dial re-negotiates the codec, so a peer upgraded while
// we were speaking gob gets picked back up on wire.
func (p *peer) fail(tc Transport) {
	p.mu.Lock()
	if p.tc == tc {
		p.tc = nil
	}
	p.mu.Unlock()
	if tc != nil {
		tc.Close()
	}
}

// close shuts down the current transport without forgetting the dialer.
func (p *peer) close() error {
	p.mu.Lock()
	tc := p.tc
	p.tc = nil
	p.mu.Unlock()
	if tc != nil {
		return tc.Close()
	}
	return nil
}

// Transient reports whether err is plausibly transient — a transport
// failure, per-call timeout, failed dial, or open circuit breaker — as
// opposed to a deterministic application rejection (rpc.ServerError), which
// no amount of retrying fixes. Higher layers (view.Resilient, the training
// pipeline's batch retry) use it to decide whether a failed call is worth
// repeating.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	var serverErr rpc.ServerError
	return !errors.As(err, &serverErr)
}

// retryable reports whether err is a transport-level failure worth retrying
// on a fresh connection. Application errors returned by the service
// (rpc.ServerError) are deterministic — retrying them wastes a round trip —
// with one exception: a payload checksum rejection means the bytes were
// damaged in flight, and a retry re-sends them intact.
func retryable(err error) bool { return Transient(err) || isChecksumMismatch(err) }

// backoff returns the delay before retry attempt (1-based): full jitter,
// i.e. uniform in [0, ceiling) where the ceiling grows exponentially from
// base and caps at max. Full jitter (vs the previous fixed-multiplier
// jitter in [d/2, d)) spreads the retries of clients that failed together —
// after a partition heals, every client's first retry lands at a different
// instant instead of hammering the recovering server in lockstep.
func (c *Client) backoff(attempt int) time.Duration {
	base := c.opts.RetryBaseDelay
	if base <= 0 {
		base = time.Millisecond
	}
	d := base << (attempt - 1)
	if maxD := c.opts.RetryMaxDelay; maxD > 0 && d > maxD {
		d = maxD
	}
	c.jitterMu.Lock()
	f := c.jitter.Float64()
	c.jitterMu.Unlock()
	return time.Duration(float64(d) * f)
}

// callPeer performs one fault-tolerant RPC against peer p: breaker check,
// (re)dial, per-attempt timeout, and bounded retries with backoff for
// transport failures. Transport outcomes feed the breaker; application
// errors do not (the peer is healthy, the request was bad).
func (c *Client) callPeer(p int, method string, args, reply any) error {
	return c.callPeerBudget(p, method, args, reply, c.opts.MaxRetries)
}

// callPeerBudget is callPeer with an explicit retry budget, so replica
// fan-outs can spend fewer retries on a peer already marked stale (the
// catch-up path will repair it) while reads keep the full budget.
func (c *Client) callPeerBudget(p int, method string, args, reply any, maxRetries int) error {
	return c.callPe(c.peerAt(p), method, args, reply, maxRetries)
}

// callPe is callPeerBudget addressed by peer object — the form routing-aware
// call sites use, since a shard map resolves to peers, not indices.
func (c *Client) callPe(pe *peer, method string, args, reply any, maxRetries int) error {
	return c.callPeCtx(context.Background(), pe, method, args, reply, maxRetries)
}

// callPeCtx is the fault-tolerant call loop with end-to-end deadline and
// priority propagation. The caller's context bounds the *total* elapsed
// time — per-attempt timeouts are clipped to the remaining budget, backoff
// sleeps never overrun the deadline, and an attempt whose budget is already
// spent fails fast before dialing — so a 500ms caller can never be held for
// MaxRetries × CallTimeout. Two outcomes are backpressure, not failure, and
// never feed the circuit breaker: a server shed (OverloadedError — the
// retry delay honors its retry-after hint) and the client's own adaptive
// concurrency limit (errClientSaturated).
func (c *Client) callPeCtx(ctx context.Context, pe *peer, method string, args, reply any, maxRetries int) error {
	pri, hasPri := PriorityFromContext(ctx)
	deadline, hasDL := ctx.Deadline()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if attempt > maxRetries {
				return lastErr
			}
			delay := c.backoff(attempt)
			if ra := OverloadRetryAfter(lastErr); ra > 0 {
				// The server told us when to come back; our jittered backoff
				// would either hammer it early or waste budget.
				delay = ra
			}
			if hasDL && time.Until(deadline) <= delay {
				c.metrics.incBudgetExhausted()
				return fmt.Errorf("cluster: %s: %w (budget spent after %d attempts, last: %v)",
					method, context.DeadlineExceeded, attempt, lastErr)
			}
			c.metrics.incRetry()
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				c.metrics.incBudgetExhausted()
				return fmt.Errorf("cluster: %s: %w (last: %v)", method, ctx.Err(), lastErr)
			}
		}
		// Fast-fail before dialing when the budget is already exhausted: a
		// reply we cannot wait for is not worth a connection.
		var budget time.Duration
		if hasDL {
			budget = time.Until(deadline)
			if budget <= 0 {
				c.metrics.incBudgetExhausted()
				if lastErr != nil {
					return fmt.Errorf("cluster: %s: %w (last: %v)", method, context.DeadlineExceeded, lastErr)
				}
				return fmt.Errorf("cluster: %s: %w", method, context.DeadlineExceeded)
			}
		}
		if err := pe.br.allow(time.Now()); err != nil {
			lastErr = err
			// An open breaker rejects without consuming a network attempt,
			// but still honors the retry budget: the cooldown may expire
			// between attempts, letting a later probe through.
			continue
		}
		c.metrics.incAttempt()
		attemptStart := time.Now()
		tc, err := c.transportFor(pe)
		if err != nil {
			pe.br.failure(time.Now(), err)
			lastErr = err
			continue
		}
		timeout := c.opts.CallTimeout
		if budget > 0 && (timeout <= 0 || budget < timeout) {
			timeout = budget
		}
		if et, ok := tc.(envTransport); ok && (hasPri || budget > 0) {
			err = et.CallEnv(method, args, reply, timeout, callEnv{pri: pri, hasPri: hasPri, budget: budget})
		} else {
			err = tc.Call(method, args, reply, timeout)
		}
		c.metrics.observeClientCall(method, attemptStart)
		if err == nil {
			pe.br.success()
			return nil
		}
		lastErr = err
		if errors.Is(err, errTransportClosed) {
			// A concurrent call on this peer dropped the transport we were
			// handed. That says nothing about the peer: retry on its
			// replacement without feeding the breaker. (fail clears tc only
			// if it is somehow still the peer's current transport.)
			pe.fail(tc)
			continue
		}
		timedOut := errors.Is(err, ErrCallTimeout)
		if timedOut {
			c.metrics.incTimeout()
		}
		if errors.Is(err, errClientSaturated) {
			// Our own adaptive limit, not the peer: back off and retry
			// without touching the connection or the breaker.
			continue
		}
		if IsOverloaded(err) {
			// Server shed: the transport and the peer are healthy, the
			// server is just full. Count it as a breaker success so load
			// can never cascade into breaker trips.
			c.metrics.incShedSeen()
			pe.br.success()
			continue
		}
		if !retryable(err) {
			pe.br.success() // the transport worked; the request was rejected
			return err
		}
		// Transport failure: record it against the breaker, and drop the
		// transport so the next attempt redials. A timed-out wire exchange
		// is the exception: the pool already discarded the one connection
		// it held, and dropping the rest would fail every concurrent call
		// on the peer.
		if _, pooled := tc.(*wireTransport); !pooled || !timedOut {
			pe.fail(tc)
		}
		pe.br.failure(time.Now(), err)
	}
}

// newJitterRNG builds the retry-jitter RNG from Options.Seed, falling back
// to an unpredictable seed.
func newJitterRNG(seed int64) *rand.Rand {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return rand.New(rand.NewSource(seed))
}
