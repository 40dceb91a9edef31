package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
)

func TestHandshakeRoundTrip(t *testing.T) {
	h := Hello(1, Version)
	minV, maxV, err := ParseHello(h)
	if err != nil {
		t.Fatalf("ParseHello: %v", err)
	}
	if minV != 1 || maxV != Version {
		t.Fatalf("ParseHello = [%d,%d], want [1,%d]", minV, maxV, Version)
	}
	a := Ack(Version)
	ver, err := ParseAck(a)
	if err != nil {
		t.Fatalf("ParseAck: %v", err)
	}
	if ver != Version {
		t.Fatalf("ParseAck = %d, want %d", ver, Version)
	}
}

func TestParseHelloRejects(t *testing.T) {
	var zero [8]byte
	if _, _, err := ParseHello(zero); err == nil {
		t.Fatal("ParseHello accepted all-zero hello")
	}
	// Gob streams start with a nonzero uvarint length: never the magic.
	gobby := [8]byte{0x1a, 0xff, 0x81, 0x03, 1, 1, 0, 0}
	if _, _, err := ParseHello(gobby); err == nil {
		t.Fatal("ParseHello accepted gob-looking bytes")
	}
	bad := Hello(0, 0) // min version 0 is invalid
	if _, _, err := ParseHello(bad); err == nil {
		t.Fatal("ParseHello accepted version range [0,0]")
	}
	inverted := Hello(2, 1)
	if _, _, err := ParseHello(inverted); err == nil {
		t.Fatal("ParseHello accepted inverted version range")
	}
}

func TestNegotiate(t *testing.T) {
	cases := []struct {
		min, max, want byte
	}{
		{1, Version, Version},         // exact overlap
		{1, Version + 5, Version},     // future client: clamp to ours
		{Version + 1, Version + 5, 0}, // future-only client: reject
		{1, 1, 1},                     // old client pinned to v1
	}
	for _, c := range cases {
		if got := Negotiate(c.min, c.max); got != c.want {
			t.Errorf("Negotiate(%d,%d) = %d, want %d", c.min, c.max, got, c.want)
		}
	}
}

func TestNegotiateCapped(t *testing.T) {
	cases := []struct {
		min, max, localMax, want byte
	}{
		{1, Version, 1, 1}, // server capped at v1: v2 client lands on v1
		{1, Version, Version, Version},
		{1, 1, Version, 1},                 // old client against uncapped server
		{2, Version, 1, 0},                 // client requires >= 2, server capped at 1
		{1, Version, 0, Version},           // zero cap means "no cap"
		{1, Version, Version + 9, Version}, // cap above our max clamps to Version
	}
	for _, c := range cases {
		if got := NegotiateCapped(c.min, c.max, c.localMax); got != c.want {
			t.Errorf("NegotiateCapped(%d,%d,%d) = %d, want %d", c.min, c.max, c.localMax, got, c.want)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{KindRequest, 1, 2, 3, 4, 5}
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame round trip = %v, want %v", got, payload)
	}
	PutBuf(got)
}

func TestReadFrameRejectsOversized(t *testing.T) {
	// A corrupt length prefix far beyond MaxFrame must be rejected before
	// any allocation happens.
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadFrame(4GiB prefix) = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte{KindResponse, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(short)); err == nil {
		t.Fatal("ReadFrame accepted truncated frame")
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{4, 0})); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadFrame(truncated header) = %v, want ErrUnexpectedEOF", err)
	}
}

func TestReadFrameLargeRoundTrip(t *testing.T) {
	// A frame bigger than frameChunk exercises the incremental-growth read
	// path and must still round-trip byte-exact.
	payload := make([]byte, 3*frameChunk+17)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	payload[0] = KindResponse
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("large frame round trip mismatch: %d vs %d bytes", len(got), len(payload))
	}
}

func TestReadFrameForgedLengthBounded(t *testing.T) {
	// A header claiming a near-MaxFrame payload followed by almost no data
	// must fail on the missing bytes without committing the claimed memory:
	// the read path may only allocate for bytes that actually arrived (one
	// chunk here), not the advertised gigabyte.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame)
	stream := append(hdr[:], make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadFrame(bytes.NewReader(stream)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadFrame(forged length) = %v, want ErrUnexpectedEOF", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*frameChunk {
		t.Fatalf("forged 1GiB length prefix allocated %d bytes; want ≤ %d", grew, 8*frameChunk)
	}
}

// TestReadFramePoolsLargeFrames: frames larger than frameChunk come back
// to a size-classed pool, so reading 2 MiB frames in a row reuses one
// buffer instead of growing a fresh one each time.
func TestReadFramePoolsLargeFrames(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	const size, reads = 2 << 20, 20
	payload := bytes.Repeat([]byte{KindResponse, 7}, size/2)
	var stream bytes.Buffer
	for i := 0; i <= reads; i++ {
		if err := WriteFrame(&stream, payload); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	r := bytes.NewReader(stream.Bytes())
	read := func() []byte {
		got, err := ReadFrame(r)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("ReadFrame = %d bytes, %v", len(got), err)
		}
		return got
	}
	first := read()
	PutBuf(first)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		PutBuf(read())
	}
	runtime.ReadMemStats(&after)
	// A miss costs at least one fresh 2 MiB buffer; allow two for pool
	// shuffles across processors.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*size {
		t.Fatalf("%d reads of a %d-byte frame allocated %d bytes; want the pooled buffer reused", reads, size, grew)
	}
}

// TestReadFrameForgedLengthCommitsOneChunk: a header claiming 64 MiB —
// more than any pooled buffer — followed by 10 bytes commits at most one
// frameChunk before the missing bytes fail the read.
func TestReadFrameForgedLengthCommitsOneChunk(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 64<<20)
	stream := append(hdr[:], make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadFrame(bytes.NewReader(stream)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadFrame(forged length) = %v, want ErrUnexpectedEOF", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > frameChunk+4096 {
		t.Fatalf("forged 64 MiB length prefix allocated %d bytes; want ≤ one %d-byte chunk", grew, frameChunk)
	}
}

func TestFillFloat32s(t *testing.T) {
	want := []float32{1.5, -2, 0, float32(math.Inf(1))}
	r := NewReader(AppendFloat32s(nil, want))
	if n := r.Count(4); n != len(want) {
		t.Fatalf("count = %d", n)
	}
	got := make([]float32, len(want))
	r.FillFloat32s(got[:1])
	r.FillFloat32s(got[1:])
	if err := r.Done(); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("FillFloat32s = %v, %v; want %v", got, err, want)
	}
	r.FillFloat32s(got[:1]) // past the end
	if r.Err() == nil {
		t.Fatal("FillFloat32s past the end did not fail")
	}
}

func TestPrimitivesRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendVarint(b, -1234567)
	b = AppendVarint(b, math.MinInt64)
	b = AppendUint32(b, 0xdeadbeef)
	b = AppendUint64(b, 0x0123456789abcdef)
	b = AppendFloat64(b, -math.Pi)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendString(b, "héllo wire")
	b = AppendBytes(b, []byte{0, 1, 2})
	b = AppendUint64s(b, []uint64{7, 8, 9})
	b = AppendFloat32s(b, []float32{1.5, -2.25})
	b = AppendInt32s(b, []int32{-3, 4})
	b = AppendBools(b, []bool{true, false, true})

	r := NewReader(b)
	if v := r.Uvarint(); v != 0 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := r.Uvarint(); v != math.MaxUint64 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != -1234567 {
		t.Fatalf("Varint = %d", v)
	}
	if v := r.Varint(); v != math.MinInt64 {
		t.Fatalf("Varint = %d", v)
	}
	if v := r.Uint32(); v != 0xdeadbeef {
		t.Fatalf("Uint32 = %x", v)
	}
	if v := r.Uint64(); v != 0x0123456789abcdef {
		t.Fatalf("Uint64 = %x", v)
	}
	if v := r.Float64(); v != -math.Pi {
		t.Fatalf("Float64 = %v", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if v := r.String(); v != "héllo wire" {
		t.Fatalf("String = %q", v)
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{0, 1, 2}) {
		t.Fatalf("Bytes = %v", v)
	}
	if v := r.Uint64s(); !reflect.DeepEqual(v, []uint64{7, 8, 9}) {
		t.Fatalf("Uint64s = %v", v)
	}
	if v := r.Float32s(); !reflect.DeepEqual(v, []float32{1.5, -2.25}) {
		t.Fatalf("Float32s = %v", v)
	}
	if v := r.Int32s(); !reflect.DeepEqual(v, []int32{-3, 4}) {
		t.Fatalf("Int32s = %v", v)
	}
	if v := r.Bools(); !reflect.DeepEqual(v, []bool{true, false, true}) {
		t.Fatalf("Bools = %v", v)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{0x01})
	r.Uint64() // truncated: fails
	if r.Err() == nil {
		t.Fatal("expected sticky error after truncated Uint64")
	}
	// Every later read must return zero values, not panic or advance.
	if r.Byte() != 0 || r.Uvarint() != 0 || r.String() != "" || r.Bytes() != nil {
		t.Fatal("reads after sticky error returned nonzero values")
	}
	if r.Done() == nil {
		t.Fatal("Done must report the sticky error")
	}
}

func TestReaderCountRejectsHugeCounts(t *testing.T) {
	// A frame claiming 2^40 uint64s in 9 bytes must fail, not allocate 8TiB.
	b := AppendUvarint(nil, 1<<40)
	r := NewReader(b)
	if v := r.Uint64s(); v != nil {
		t.Fatalf("Uint64s on corrupt count = %v", v)
	}
	if r.Err() == nil {
		t.Fatal("corrupt count must poison the reader")
	}
}

func TestReaderTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.Byte()
	if err := r.Done(); err == nil {
		t.Fatal("Done must reject trailing bytes")
	}
}

func TestReaderInvalidate(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.Invalidate()
	if r.Err() == nil || r.Done() == nil {
		t.Fatal("Invalidate must poison the reader")
	}
	if r.Byte() != 0 {
		t.Fatal("read after Invalidate returned data")
	}
}

func TestBufPool(t *testing.T) {
	b := GetBuf(100)
	if len(b) != 100 {
		t.Fatalf("GetBuf(100) len = %d", len(b))
	}
	PutBuf(b)
	big := GetBuf(maxPooledBuf + 1)
	if len(big) != maxPooledBuf+1 {
		t.Fatalf("GetBuf(big) len = %d", len(big))
	}
	PutBuf(big) // must not retain; just exercises the cap check
}

// FuzzReader drives the decoding primitives over arbitrary frames: no input
// may panic or allocate beyond the frame's own size, and Done must be
// reachable on every path.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03})
	f.Add(AppendString(AppendUvarint(nil, 3), "abc"))
	f.Add(AppendUint64s(nil, []uint64{1, 2, 3}))
	f.Add(AppendUvarint(nil, 1<<40)) // huge count
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		// A representative mix of reads; sticky errors make order safe.
		r.Byte()
		r.Uvarint()
		r.Varint()
		r.Uint32()
		r.Uint64()
		_ = r.String()
		r.Bytes()
		r.Uint64s()
		r.Float32s()
		r.FillFloat32s(make([]float32, 3))
		r.Int32s()
		r.Bools()
		_ = r.Done()
	})
}

// FuzzFrame round-trips arbitrary payloads through Write/ReadFrame and
// feeds arbitrary bytes to ReadFrame directly.
func FuzzFrame(f *testing.F) {
	f.Add([]byte{KindRequest, 1, 2, 3})
	// Envelope request: priority 1, budget 250ms, method 3, two arg bytes.
	env := []byte{KindRequestEnv, 1}
	env = AppendUvarint(env, 250)
	env = AppendUvarint(env, 3)
	f.Add(append(env, 0xaa, 0xbb))
	f.Add([]byte{KindRequestEnv})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Interpretation 1: data is a payload. Must round-trip exactly.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, data); err == nil {
			got, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("ReadFrame after WriteFrame: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("frame round trip mismatch: %d vs %d bytes", len(got), len(data))
			}
			PutBuf(got)
		}
		// Interpretation 2: data is a raw stream. Must error or yield a
		// frame, never panic or over-allocate.
		if got, err := ReadFrame(bytes.NewReader(data)); err == nil {
			PutBuf(got)
		}
	})
}
