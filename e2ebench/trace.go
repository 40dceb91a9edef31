package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer's epoch. Req groups every span of one batch, query,
// write or read; children inherit it from their parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Parents are found per
// goroutine: a span opened while another is open on the same goroutine is
// its child, which matches the synchronous call chains the wrappers sit on.
// A nil or disabled tracer records nothing, so untraced runs pay only the
// nil check.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	open  map[uint64][]int // goroutine id -> stack of open span ids
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: make(map[uint64][]int)}
}

// goid parses the current goroutine's id from its stack header. It costs
// about a microsecond, which only traced runs pay.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// begin opens a span starting now; see beginAt.
func (t *tracer) begin(name string, req int64) int {
	if t == nil {
		return 0
	}
	return t.beginAt(name, req, time.Now())
}

// beginAt opens a span under the innermost span open on this goroutine and
// returns its id (0 when t is nil). req 0 inherits the parent's request id.
func (t *tracer) beginAt(name string, req int64, start time.Time) int {
	if t == nil {
		return 0
	}
	g := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	parent := 0
	if st := t.open[g]; len(st) > 0 {
		parent = st[len(st)-1]
		if req == 0 {
			req = t.spans[parent-1].Req
		}
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: t.ns(start)})
	t.open[g] = append(t.open[g], id)
	return id
}

// end closes span id now.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.ns(time.Now())
	g := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	st := t.open[g]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == id {
			st = append(st[:i], st[i+1:]...)
			break
		}
	}
	if len(st) == 0 {
		delete(t.open, g)
	} else {
		t.open[g] = st
	}
}

// add records a closed span whose interval was measured by the caller, as
// a child of parent (0 = root).
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent > 0 && req == 0 {
		req = t.spans[parent-1].Req
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: t.ns(start), End: t.ns(end)})
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// layerTime is the summed duration and self time of every span of one name.
type layerTime struct {
	Calls  int64
	BusyNs int64
	SelfNs int64
}

// selfTimes computes, for each span name, the summed duration and the
// summed self time: a span's duration minus the part of its interval that
// its children cover.
func selfTimes(spans []span) map[string]*layerTime {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Calls++
		lt.BusyNs += d
		lt.SelfNs += d - covered(s, kids[s.ID])
	}
	return out
}

// covered returns how much of s's interval the union of children covers.
func covered(s span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// unattributedShare is the share of the named root spans' time that no
// child layer span covers.
func unattributedShare(spans []span, roots map[string]bool) float64 {
	times := selfTimes(spans)
	var busy, self int64
	for name := range roots {
		if lt := times[name]; lt != nil {
			busy += lt.BusyNs
			self += lt.SelfNs
		}
	}
	if busy == 0 {
		return 0
	}
	return float64(self) / float64(busy)
}

// writeSpans writes the spans and the run's host record as one JSON file.
func writeSpans(path string, host hostInfo, spans []span) error {
	b, err := json.Marshal(struct {
		Host  hostInfo `json:"host"`
		Spans []span   `json:"spans"`
	}{host, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
