// Package wire implements PlatoD2GL's binary RPC framing: the replacement
// for net/rpc + gob on every cluster hot path (remote sampling, feature
// pulls, batch ingest, replication, migration, anti-entropy).
//
// Motivation (ROADMAP item 4, and the DistDGL/AliGraph observation that
// serialization dominates remote GNN sampling): gob re-encodes type
// metadata per stream, reflects over every struct, and boxes every slice
// element. The payloads here are flat numeric records — vertex ids, float32
// feature rows, event tuples — so a hand-rolled little-endian layout with
// varint counts and bulk slice copies is both far smaller and far cheaper
// to encode.
//
// # Stream layout
//
// A wire connection starts with an 8-byte client hello and an 8-byte server
// acceptance (see Hello/Ack), negotiating a protocol version. The first
// hello byte is 0x00, which can never begin a net/rpc gob stream (gob
// messages are length-prefixed and never empty), so a server can sniff the
// first bytes of any accepted connection and fall back to serving legacy
// gob clients — the rolling-upgrade path.
//
// After the handshake, each direction carries length-prefixed frames:
//
//	uint32 LE  payload length (≤ MaxFrame)
//	byte       frame kind (KindRequest / KindResponse / KindError)
//	...        kind-specific payload
//
// A request payload is `uvarint method-id` followed by the method's encoded
// args; a response is the encoded reply; an error is a uvarint-length
// string. One request is outstanding per connection at a time (the client
// pools connections instead of multiplexing), so frames need no sequence
// numbers.
//
// Encoding primitives are append-style (no intermediate allocations) and
// decoding is bounds-checked against the frame: a truncated, corrupt, or
// oversized frame yields an error, never a panic and never an attacker-
// sized allocation.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"
)

// Version is the newest protocol version this build speaks. Version 1 is
// the initial binary framing; version 2 adds the request envelope
// (KindRequestEnv) carrying the caller's remaining deadline budget and
// priority class for server-side admission control. The handshake lets old
// and new builds agree on the highest version both sides support, so a v2
// client on a v1-negotiated connection simply keeps sending bare
// KindRequest frames.
const Version = 2

// Magic is the first hello byte sequence. The leading 0x00 is deliberate:
// a gob message starts with its uvarint byte length, which is never zero,
// so sniffing these four bytes cleanly separates wire clients from legacy
// net/rpc gob clients on the same listener.
var Magic = [4]byte{0x00, 'D', '2', 'G'}

// Frame kinds.
const (
	KindRequest  = 0x01
	KindResponse = 0x02 // successful reply payload
	KindError    = 0x03 // application error string
	// KindRequestEnv (protocol >= 2) is a request with an admission
	// envelope: `byte priority | uvarint budget-millis | uvarint method-id |
	// args`. priority 0 means "use the method's default class"; budget 0
	// means "no deadline propagated". Only valid on connections that
	// negotiated version >= 2.
	KindRequestEnv = 0x04
)

// MaxFrame caps a single frame's payload. Snapshots of large shards are the
// biggest legitimate payloads; anything beyond this is a corrupt length
// prefix and the connection is dropped rather than allocated for.
const MaxFrame = 1 << 30

// helloSize is the fixed size of both handshake messages.
const helloSize = 8

// ErrFrameTooLarge rejects a frame whose length prefix exceeds MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrTruncated reports a decode that ran past the end of the frame.
var ErrTruncated = errors.New("wire: truncated frame")

// ErrBadHandshake reports a malformed or version-incompatible handshake.
var ErrBadHandshake = errors.New("wire: bad handshake")

// Hello renders the client's 8-byte handshake: magic, the version range the
// client speaks, two reserved zero bytes.
func Hello(minVer, maxVer byte) [helloSize]byte {
	var h [helloSize]byte
	copy(h[:], Magic[:])
	h[4], h[5] = minVer, maxVer
	return h
}

// Ack renders the server's 8-byte acceptance: magic, the chosen version
// (0 = rejected), three reserved zero bytes.
func Ack(version byte) [helloSize]byte {
	var a [helloSize]byte
	copy(a[:], Magic[:])
	a[4] = version
	return a
}

// ParseHello validates a client hello and returns its version range.
func ParseHello(h [helloSize]byte) (minVer, maxVer byte, err error) {
	if [4]byte(h[:4]) != Magic {
		return 0, 0, fmt.Errorf("%w: bad magic", ErrBadHandshake)
	}
	if h[4] == 0 || h[4] > h[5] {
		return 0, 0, fmt.Errorf("%w: version range [%d,%d]", ErrBadHandshake, h[4], h[5])
	}
	return h[4], h[5], nil
}

// ParseAck validates a server acceptance and returns the chosen version.
// version 0 means the server rejected the client's version range.
func ParseAck(a [helloSize]byte) (version byte, err error) {
	if [4]byte(a[:4]) != Magic {
		return 0, fmt.Errorf("%w: bad magic in ack", ErrBadHandshake)
	}
	return a[4], nil
}

// Negotiate picks the version a server should answer a [minVer, maxVer]
// hello with: the highest version both sides speak, or 0 when the ranges
// are disjoint.
func Negotiate(minVer, maxVer byte) byte {
	return NegotiateCapped(minVer, maxVer, Version)
}

// NegotiateCapped is Negotiate with the local side's maximum pinned below
// the build's Version — the rollback escape hatch (and test hook) for
// serving as an older protocol generation without recompiling. localMax 0
// or above Version means Version.
func NegotiateCapped(minVer, maxVer, localMax byte) byte {
	if localMax == 0 || localMax > Version {
		localMax = Version
	}
	if minVer > localMax {
		return 0
	}
	if maxVer > localMax {
		return localMax
	}
	return maxVer
}

// WriteFrame writes one length-prefixed frame. payload must already start
// with the frame-kind byte.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameChunk is the largest frame payload ReadFrame allocates up-front on
// the length prefix alone. Beyond it, ReadFrame reads straight into a
// buffer only when the pool already holds one big enough; otherwise the
// frame grows geometrically as bytes actually arrive, so a forged header
// claiming a near-MaxFrame length costs one chunk of memory, not the
// claimed gigabyte.
const frameChunk = 1 << 20

// ReadFrame reads one frame's payload into a buffer from GetBuf (return it
// with PutBuf). A length prefix beyond MaxFrame is rejected without
// allocating, and fresh memory for a large frame is committed only as its
// bytes stream in.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	buf, ok := pooledBuf(n)
	if !ok {
		buf = GetBuf(min(n, frameChunk))
	}
	filled := 0
	for {
		if _, err := io.ReadFull(r, buf[filled:]); err != nil {
			PutBuf(buf)
			return nil, err
		}
		filled = len(buf)
		if filled == n {
			return buf, nil
		}
		next := GetBuf(min(2*filled, n))
		copy(next, buf)
		PutBuf(buf)
		buf = next
	}
}

// Frame buffers are pooled in power-of-two size classes from 4 KiB to
// maxPooledBuf, so a 2 MiB feature reply reuses a 2 MiB buffer instead of
// growing a small one by append on every call. Pool i holds buffers of
// capacity at least 4 KiB << i. Buffers above maxPooledBuf are left to the
// GC so one snapshot transfer does not pin a gigabyte in the pool.
const (
	minBufShift  = 12
	maxBufShift  = 24
	maxPooledBuf = 1 << maxBufShift
)

var bufPools [maxBufShift - minBufShift + 1]sync.Pool

// sizeClass returns the pool whose buffers all hold n bytes: the smallest
// power of two ≥ n, counted from 4 KiB.
func sizeClass(n int) int {
	if n <= 1<<minBufShift {
		return 0
	}
	return bits.Len(uint(n-1)) - minBufShift
}

// pooledBuf returns a buffer of length n if the pool holds one, without
// allocating otherwise.
func pooledBuf(n int) ([]byte, bool) {
	c := sizeClass(n)
	if c >= len(bufPools) {
		return nil, false
	}
	bp, ok := bufPools[c].Get().(*[]byte)
	if !ok {
		return nil, false
	}
	return (*bp)[:n], true
}

// GetBuf returns a pooled buffer of length n. Append-style frame builders
// take GetBuf(size)[:0], with size their encoded length or an upper bound
// on it, so the frame is built without growing.
func GetBuf(n int) []byte {
	if b, ok := pooledBuf(n); ok {
		return b
	}
	if c := sizeClass(n); c < len(bufPools) {
		return make([]byte, n, 1<<(c+minBufShift))
	}
	return make([]byte, n)
}

// PutBuf returns a buffer obtained from GetBuf (or grown from one) to the
// largest size class its capacity covers.
func PutBuf(b []byte) {
	if cap(b) < 1<<minBufShift {
		return
	}
	c := bits.Len(uint(cap(b))) - 1 - minBufShift
	if c >= len(bufPools) {
		return
	}
	b = b[:0]
	bufPools[c].Put(&b)
}

// --- Append-style encoding primitives -----------------------------------

// AppendUvarint appends v in unsigned LEB128.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v zigzag-encoded.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendUint32 appends v as 4 fixed little-endian bytes.
func AppendUint32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendUint64 appends v as 8 fixed little-endian bytes.
func AppendUint64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendFloat64 appends v's IEEE bits as 8 fixed bytes.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendBool appends one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends a uvarint length followed by the bytes.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a uvarint length followed by the bytes.
func AppendBytes(b []byte, v []byte) []byte {
	b = AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// AppendUint64s appends a uvarint count followed by fixed 8-byte elements —
// the bulk layout for vertex-id and checksum slices.
func AppendUint64s(b []byte, v []uint64) []byte {
	b = AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	return b
}

// AppendFloat32s appends a uvarint count followed by fixed 4-byte elements —
// the bulk layout for feature matrices.
func AppendFloat32s(b []byte, v []float32) []byte {
	b = AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
	}
	return b
}

// AppendInt32s appends a uvarint count followed by fixed 4-byte elements.
func AppendInt32s(b []byte, v []int32) []byte {
	b = AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}

// AppendBools appends a uvarint count followed by one byte per element.
func AppendBools(b []byte, v []bool) []byte {
	b = AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = AppendBool(b, x)
	}
	return b
}

// --- Bounds-checked decoding --------------------------------------------

// Reader decodes one frame. Errors are sticky: after the first failure
// every read returns zero values and Err reports the failure, so decoders
// can run straight-line without per-field checks. All slice reads validate
// the element count against the bytes actually remaining, so a corrupt
// count cannot force a huge allocation.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader decodes from b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the undecoded byte count.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
	r.off = len(r.b)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Bool reads one byte as a boolean.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uvarint reads an unsigned LEB128 value.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zigzag-encoded value.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Uint32 reads 4 fixed little-endian bytes.
func (r *Reader) Uint32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// Uint64 reads 8 fixed little-endian bytes.
func (r *Reader) Uint64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Float64 reads 8 fixed bytes as IEEE float64.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Invalidate poisons the decode with ErrTruncated — for callers that
// discover domain-level corruption (an impossible count, an out-of-range
// id) mid-decode.
func (r *Reader) Invalidate() { r.fail() }

// Count reads a uvarint element count and validates count*minElemSize
// against the remaining bytes, failing the decode (instead of allocating)
// when the frame cannot possibly hold that many elements.
func (r *Reader) Count(minElemSize int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Remaining()/minElemSize) {
		r.fail()
		return 0
	}
	return int(n)
}

// String reads a uvarint-length-prefixed string (copied out of the frame).
func (r *Reader) String() string {
	n := r.Count(1)
	if r.err != nil || n == 0 {
		return ""
	}
	v := string(r.b[r.off : r.off+n])
	r.off += n
	return v
}

// Bytes reads a uvarint-length-prefixed byte slice, copied out of the frame
// so the frame buffer can return to its pool.
func (r *Reader) Bytes() []byte {
	n := r.Count(1)
	if r.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	v := make([]byte, n)
	copy(v, r.b[r.off:])
	r.off += n
	return v
}

// Uint64s reads a count-prefixed bulk slice of fixed 8-byte elements.
func (r *Reader) Uint64s() []uint64 {
	n := r.Count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	v := make([]uint64, n)
	for i := range v {
		v[i] = binary.LittleEndian.Uint64(r.b[r.off:])
		r.off += 8
	}
	return v
}

// FillFloat32s reads len(dst) fixed 4-byte elements into dst — one row of
// a counted matrix, decoded straight into its destination.
func (r *Reader) FillFloat32s(dst []float32) {
	if r.err != nil || r.off+4*len(dst) > len(r.b) {
		r.fail()
		return
	}
	src := r.b[r.off : r.off+4*len(dst)]
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
	r.off += len(src)
}

// Float32s reads a count-prefixed bulk slice of fixed 4-byte elements.
func (r *Reader) Float32s() []float32 {
	n := r.Count(4)
	if r.err != nil || n == 0 {
		return nil
	}
	v := make([]float32, n)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(r.b[r.off:]))
		r.off += 4
	}
	return v
}

// Int32s reads a count-prefixed bulk slice of fixed 4-byte elements.
func (r *Reader) Int32s() []int32 {
	n := r.Count(4)
	if r.err != nil || n == 0 {
		return nil
	}
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(r.b[r.off:]))
		r.off += 4
	}
	return v
}

// Bools reads a count-prefixed slice of one-byte booleans.
func (r *Reader) Bools() []bool {
	n := r.Count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	v := make([]bool, n)
	for i := range v {
		v[i] = r.b[r.off] != 0
		r.off++
	}
	return v
}

// Done reports the first decode error, or an error if the frame holds
// trailing bytes the decoder did not consume (a framing bug or corruption,
// either way not a frame to trust).
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes after decode", len(r.b)-r.off)
	}
	return nil
}
