package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"

	"platod2gl/internal/cluster"
	"platod2gl/internal/dataset"
	"platod2gl/internal/eventlog"
	"platod2gl/internal/graph"
	"platod2gl/internal/view"
)

// Churn shape fixed by the workload, never derived from the host.
const (
	// churnScale shrinks the WeChat spec (1B users) to ~30k users with the
	// same relation mix and Zipf skew, so hub users still hold thousands of
	// edges.
	churnScale        = 3e-5
	churnPreload      = 500_000 // logical events preloaded in setup (x2 mirrored)
	churnPreloadBatch = 2_048
	churnWriteBatch   = 2_048 // logical events per streamed write (x2 mirrored)
	// churnBudget is the streamed events per measured second. The writer
	// stops at the budget, and a slower writer is topped up to it after
	// the timed phase, so the final graph, and with it the memory figures,
	// does not depend on how fast the writer was; it is set so a 2-vCPU
	// host reaches it in about three quarters of the run.
	churnBudget    = 300_000
	churnReadSeeds = 64
	churnF1        = 10
	churnF2        = 5
)

// churnPath is the 2-hop walk over the written relation: User -> Live
// -> User through its mirrored reverse edges.
var churnPath = graph.MetaPath{0, 0 + dataset.ReverseOffset}

type churnWorkload struct {
	spec    *dataset.Spec
	seed    int64
	gen     *dataset.Generator
	preload [][]graph.Event
	// preloadN is the preload's logical event count before mirroring.
	preloadN int
	walDir   string
	bc       *benchCluster
	reader   view.GraphView
	zipf     *rand.Zipf

	sampleLats latencies
	ackLats    latencies
	// writes counts streamed batches; failedWrites holds the indices of
	// those the cluster did not acknowledge. The batches themselves are
	// regenerated from the seed for the checks instead of being kept.
	writes       int
	failedWrites map[int]bool
}

func newChurn(cfg config) *churnWorkload {
	w := &churnWorkload{spec: dataset.WeChatSim().Scale(churnScale), seed: cfg.seed, failedWrites: map[int]bool{}}
	if cfg.smoke {
		w.spec = dataset.WeChatSim().Scale(churnScale / 10)
	}
	return w
}

// generator returns the seeded event stream: the preload, then the
// streamed batches.
func (w *churnWorkload) generator() *dataset.Generator {
	return dataset.NewGenerator(w.spec, dataset.DynamicMix, w.seed)
}

func (w *churnWorkload) prepare(e *env) error {
	w.preloadN = churnPreload
	if e.cfg.smoke {
		w.preloadN = churnPreload / 20
	}
	w.gen = w.generator()
	w.preload = preloadBatches(w.gen, w.preloadN)
	// Reader seeds follow the generator's source skew over the same users.
	rel := w.spec.Relations[0]
	w.zipf = rand.NewZipf(rand.New(rand.NewSource(e.cfg.seed+5)), rel.ZipfS, 8, rel.NumSrc-1)
	return nil
}

func (w *churnWorkload) setup(e *env) error {
	dir, err := os.MkdirTemp("", "e2ebench-wal-")
	if err != nil {
		return err
	}
	w.walDir = dir
	bc, err := startCluster(e.clusterConfig(dir))
	if err != nil {
		return err
	}
	w.bc, e.bc = bc, bc
	for _, b := range w.preload {
		if err := bc.client.ApplyBatch(b); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	w.reader = &timedView{inner: view.NewCluster(bc.client, e.cfg.seed), busy: &e.viewBusy, tr: &e.tr, subLats: &w.sampleLats}
	return nil
}

func (w *churnWorkload) teardown() {
	if w.bc != nil {
		w.bc.close()
		w.bc = nil
	}
	if w.walDir != "" {
		os.RemoveAll(w.walDir)
		w.walDir = ""
	}
}

func (w *churnWorkload) roots() map[string]bool {
	return map[string]bool{"churn.write": true, "churn.read": true}
}

func (w *churnWorkload) measure(e *env, d time.Duration, _ bool) (*phase, error) {
	p := &phase{}
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	budget := int64(d.Seconds() * churnBudget)
	writing := make(chan struct{}) // closed when the writer stops
	start := time.Now()
	var writeFailed, writes, streamed int64
	var reads, readFailed int64
	var readErr error
	// write streams one batch, traced by tr when it is not nil, and
	// records whether the cluster acked it.
	write := func(tr *tracer) {
		root := tr.begin("churn.write", int64(w.writes+1))
		batch := w.gen.Next(churnWriteBatch)
		sent := time.Now()
		sp := tr.begin("cluster.apply_batch", 0)
		err := w.bc.client.ApplyBatch(batch)
		tr.end(sp)
		tr.end(root)
		w.writes++
		writes++
		streamed += 2 * churnWriteBatch
		if err != nil {
			w.failedWrites[w.writes-1] = true
			writeFailed++
			return
		}
		w.ackLats.add(time.Since(sent))
	}
	wg.Add(2)
	go func() { // the writer: one closed loop of acknowledged batches
		defer wg.Done()
		defer close(writing)
		for streamed < budget && time.Now().Before(deadline) {
			write(e.tr.Load())
		}
	}()
	go func() { // the reader: one closed loop of 2-hop samples
		defer wg.Done()
		seeds := make([]graph.VertexID, churnReadSeeds)
		for {
			select {
			case <-writing:
				return
			default:
			}
			tr := e.tr.Load()
			root := tr.begin("churn.read", reads+1)
			for i := range seeds {
				seeds[i] = graph.MakeVertexID(w.spec.Relations[0].SrcType, w.zipf.Uint64())
			}
			_, err := w.reader.SampleSubgraph(seeds, churnPath, []int{churnF1, churnF2})
			tr.end(root)
			reads++
			if err != nil {
				readFailed++
				readErr = err
			}
		}
	}()
	wg.Wait()
	p.wall = time.Since(start)
	if readErr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: churn read error:", readErr)
	}
	p.opLats = w.ackLats.take()
	p.work = windowedRate(p.opLats, start, p.wall, 2*churnWriteBatch)
	p.sampleLats = w.sampleLats.take()
	p.extra = map[string]float64{
		"churn.sample_seeds_per_s": float64((reads-readFailed)*churnReadSeeds) / p.wall.Seconds(),
	}
	fmt.Fprintf(os.Stderr, "e2ebench: churn %d writes (%d events/s), %d reads in %s\n",
		writes, int64(p.work), reads, p.wall.Round(time.Millisecond))
	// A writer slower than the budget leaves the rest to an untimed top-up,
	// so the final graph, and with it the memory figures, is the same
	// however fast the host was.
	if left := budget - streamed; left > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: churn topping up %d events after the timed phase\n", left)
		for streamed < budget {
			write(nil)
		}
		w.ackLats.take()
	}
	p.attempted = writes + reads
	p.failed = writeFailed + readFailed
	return p, nil
}

func (w *churnWorkload) check(e *env) error {
	_, got, err := w.bc.storeBytesPerEdge()
	if err != nil {
		return err
	}
	oracle := newStore()
	expect := make([]walSummary, numShards)
	w.acked(func(b []graph.Event) {
		for s, part := range splitByShard(b) {
			expect[s].add(part)
		}
		// After the split: ApplyBatch may reorder the batch in place.
		oracle.ApplyBatch(b)
	})
	if err := checkEdgeCount(got, oracle.NumEdges()); err != nil {
		return err
	}
	return checkWALs(w.bc.walPaths, expect)
}

// acked regenerates, in order, the preload and every streamed batch the
// cluster acknowledged.
func (w *churnWorkload) acked(fn func([]graph.Event)) {
	for _, b := range w.preload {
		fn(b)
	}
	gen := w.generator()
	preloadBatches(gen, w.preloadN)
	for i := 0; i < w.writes; i++ {
		b := gen.Next(churnWriteBatch)
		if !w.failedWrites[i] {
			fn(b)
		}
	}
}

// preloadBatches draws n logical events from gen in preload-sized batches.
func preloadBatches(gen *dataset.Generator, n int) [][]graph.Event {
	var out [][]graph.Event
	for left := n; left > 0; left -= churnPreloadBatch {
		out = append(out, gen.Next(min(left, churnPreloadBatch)))
	}
	return out
}

// splitByShard partitions a batch the way the cluster client does.
func splitByShard(b []graph.Event) [][]graph.Event {
	parts := make([][]graph.Event, numShards)
	for _, ev := range b {
		s := cluster.ShardOf(ev.Edge.Src, numShards)
		parts[s] = append(parts[s], ev)
	}
	return parts
}

// walSummary is an order-sensitive digest of a sequence of logged
// batches: their count, event count and a hash over every event field.
type walSummary struct {
	batches, events int64
	hash            uint64
}

func (s *walSummary) add(events []graph.Event) {
	if len(events) == 0 {
		return
	}
	s.batches++
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(s.hash)
	for _, ev := range events {
		put(uint64(ev.Timestamp))
		put(uint64(ev.Kind))
		put(uint64(ev.Edge.Src))
		put(uint64(ev.Edge.Dst))
		put(uint64(ev.Edge.Type))
		put(math.Float64bits(ev.Edge.Weight))
		s.events++
	}
	s.hash = h.Sum64()
}

// checkEdgeCount compares the cluster's final edge count with the oracle
// store fed the same acknowledged batches.
func checkEdgeCount(cluster, oracle int64) error {
	if cluster != oracle {
		return fmt.Errorf("cluster holds %d edges, oracle fed the acked batches holds %d", cluster, oracle)
	}
	return nil
}

// checkWALs replays every shard's WAL and requires exactly the acked
// sub-batches for that shard, in order, with no batch identity logged twice.
func checkWALs(paths []string, expect []walSummary) error {
	if len(paths) != len(expect) {
		return fmt.Errorf("%d WALs for %d shards", len(paths), len(expect))
	}
	for i, p := range paths {
		type ident struct{ client, seq uint64 }
		seen := make(map[ident]bool)
		var got walSummary
		_, err := eventlog.ReplayBatches(p, func(rec eventlog.BatchRecord) error {
			id := ident{rec.ClientID, rec.ClientSeq}
			if seen[id] {
				return fmt.Errorf("batch %d/%d logged twice", rec.ClientID, rec.ClientSeq)
			}
			seen[id] = true
			got.add(rec.Events)
			return nil
		})
		if err != nil {
			return fmt.Errorf("replay %s: %w", p, err)
		}
		if got != expect[i] {
			return fmt.Errorf("shard %d WAL replays %d batches / %d events (digest %x), acked %d / %d (digest %x)",
				i, got.batches, got.events, got.hash, expect[i].batches, expect[i].events, expect[i].hash)
		}
	}
	return nil
}
