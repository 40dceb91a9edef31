package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"platod2gl/internal/graph"
	"platod2gl/internal/serve"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmokeEmitsEveryMetric runs each workload at smoke size, untraced and
// traced, and requires every metric BENCHMARK.json names, with its unit,
// and nothing else.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			cfg := config{workload: wl.Name, seed: 3, seconds: 1, trace: trace, traceDir: t.TempDir(), smoke: true}
			res, err := run(cfg, readHost(cfg))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", wl.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestChurnCheckRejectsDoctoredOracle: an oracle that misses an acked
// batch, or a WAL that holds a batch never acked, fails the churn check.
func TestChurnCheckRejectsDoctoredOracle(t *testing.T) {
	if err := checkEdgeCount(1000, 1000); err != nil {
		t.Fatalf("equal counts rejected: %v", err)
	}
	if err := checkEdgeCount(1000, 1001); err == nil {
		t.Fatal("doctored oracle count accepted")
	}

	cfg := config{workload: "churn", seed: 5, seconds: 0.5, smoke: true}
	w := newChurn(cfg)
	e := &env{cfg: cfg}
	if err := w.prepare(e); err != nil {
		t.Fatal(err)
	}
	if err := w.setup(e); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	if _, err := w.measure(e, 200e6, true); err != nil {
		t.Fatal(err)
	}
	if err := w.check(e); err != nil {
		t.Fatalf("honest churn run failed its check: %v", err)
	}
	// Doctor the oracle: check regenerates it without the last acked
	// batch, so its edge count no longer matches the cluster's.
	last := w.writes - 1
	w.failedWrites[last] = true
	err := w.check(e)
	delete(w.failedWrites, last)
	if err == nil || !strings.Contains(err.Error(), "oracle") {
		t.Fatalf("doctored oracle: check returned %v, want an edge-count mismatch", err)
	}
	var acked [][]graph.Event
	w.acked(func(b []graph.Event) { acked = append(acked, b) })
	expect := make([]walSummary, numShards)
	for _, b := range acked[:len(acked)-1] {
		for s, part := range splitByShard(b) {
			expect[s].add(part)
		}
	}
	if err := checkWALs(w.bc.walPaths, expect); err == nil {
		t.Fatal("WAL holding a batch that was never acked accepted")
	}
}

// fakeIndex is an ANN index reader over fixed vectors.
type fakeIndex map[uint64][]float32

func (f fakeIndex) ForEach(fn func(id uint64, vec []float32) bool) {
	for id, v := range f {
		if !fn(id, v) {
			return
		}
	}
}

// TestKNNCheckRejectsZeroRecall: answers whose hits are not the exact
// nearest neighbours give recall 0 and fail the check, and malformed
// answers fail validation.
func TestKNNCheckRejectsZeroRecall(t *testing.T) {
	ix := fakeIndex{}
	for id := uint64(1); id <= 40; id++ {
		ix[id] = []float32{float32(id), 0}
	}
	query := []float32{0, 0}
	var exact, wrong []serve.Result
	for id := uint64(1); id <= knnK; id++ {
		exact = append(exact, serve.Result{ID: graph.VertexID(id), Dist: float32(id * id)})
		far := 40 - id + 1
		wrong = append(wrong, serve.Result{ID: graph.VertexID(far), Dist: float32(id)})
	}
	good := []knnAnswer{{query: 1000, vec: query, hits: exact}}
	if r := recallAt(ix, good, knnK); r != 1 {
		t.Fatalf("exact answers: recall %v, want 1", r)
	}
	if err := checkRecall(recallAt(ix, good, knnK), 1, knnRecallFloor); err != nil {
		t.Fatalf("exact answers rejected: %v", err)
	}
	bad := []knnAnswer{{query: 1000, vec: query, hits: wrong}}
	r := recallAt(ix, bad, knnK)
	if r != 0 {
		t.Fatalf("far answers: recall %v, want 0", r)
	}
	if err := checkRecall(r, 1, knnRecallFloor); err == nil {
		t.Fatal("zero-recall index accepted")
	}

	if err := validateKNN(1000, exact, knnK); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	if err := validateKNN(3, exact, knnK); err == nil {
		t.Fatal("answer containing the query accepted")
	}
	if err := validateKNN(1000, exact[:knnK-1], knnK); err == nil {
		t.Fatal("short answer accepted")
	}
	desc := append([]serve.Result(nil), exact...)
	desc[0], desc[1] = desc[1], desc[0]
	if err := validateKNN(1000, desc, knnK); err == nil {
		t.Fatal("unsorted answer accepted")
	}
}
