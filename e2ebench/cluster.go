package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"platod2gl/internal/cluster"
	"platod2gl/internal/core"
	"platod2gl/internal/eventlog"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
)

const numShards = 2

// walCounters times the eventlog layer inside the servers' batch hooks.
type walCounters struct {
	append busy // calls = events appended
	sync   busy
}

// clusterConfig selects the optional pieces of a benchmark cluster.
type clusterConfig struct {
	store  *storeCounters // non-nil: time the storage layer (traced runs)
	walDir string         // non-empty: one WAL per shard, fsync per batch
	wal    *walCounters
}

// benchCluster is a 2-shard cluster on loopback TCP inside this process,
// configured as platod2gl-server and its clients configure it by default.
type benchCluster struct {
	client     *cluster.Client
	srvMetrics []*cluster.Metrics
	walPaths   []string
	wals       []*eventlog.Writer
	lis        []net.Listener
	serving    sync.WaitGroup
}

// newStore builds a topology store with platod2gl-server's default flags.
func newStore() *storage.DynamicStore {
	return storage.NewDynamicStore(storage.Options{
		Tree: core.Options{Capacity: core.DefaultCapacity, Compress: true},
	})
}

func startCluster(cfg clusterConfig) (_ *benchCluster, err error) {
	bc := &benchCluster{}
	defer func() {
		if err != nil {
			bc.close()
		}
	}()
	addrs := make([]string, numShards)
	for i := 0; i < numShards; i++ {
		ds := newStore()
		var store storage.TopologyStore = ds
		if cfg.store != nil {
			store = &timedStore{DynamicStore: ds, c: cfg.store}
		}
		svc := cluster.NewService(store, kvstore.New())
		m := &cluster.Metrics{}
		svc.SetMetrics(m)
		if cfg.walDir != "" {
			path := filepath.Join(cfg.walDir, fmt.Sprintf("shard%d.wal", i))
			w, err := eventlog.Create(path)
			if err != nil {
				return nil, fmt.Errorf("create wal: %w", err)
			}
			bc.wals = append(bc.wals, w)
			bc.walPaths = append(bc.walPaths, path)
			svc.SetBatchHook(walHook(w, cfg.wal))
		}
		srv := cluster.NewServer(svc)
		srv.SetAdmission(cluster.DefaultAdmission())
		srv.SetLimits(cluster.DefaultServerLimits())
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		bc.lis = append(bc.lis, lis)
		bc.srvMetrics = append(bc.srvMetrics, m)
		addrs[i] = lis.Addr().String()
		bc.serving.Add(1)
		go func() {
			defer bc.serving.Done()
			srv.Serve(lis)
		}()
	}
	bc.client, err = cluster.Dial(addrs, cluster.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	return bc, nil
}

// walHook is platod2gl-server's batch hook under -wal-sync=always: append,
// then fsync before the batch is applied and acknowledged.
func walHook(w *eventlog.Writer, c *walCounters) cluster.BatchHook {
	return func(clientID, seq uint64, events []graph.Event) error {
		start := time.Now()
		if _, err := w.AppendBatch(clientID, seq, events); err != nil {
			return err
		}
		c.append.add(int64(len(events)), start)
		start = time.Now()
		err := w.Sync()
		c.sync.add(1, start)
		return err
	}
}

// close stops the client, the listeners and the WALs, and waits for the
// accept loops to return.
func (bc *benchCluster) close() {
	if bc.client != nil {
		bc.client.Close()
	}
	for _, l := range bc.lis {
		l.Close()
	}
	bc.serving.Wait()
	for _, w := range bc.wals {
		w.Close()
	}
}

// walBytes is the summed size of the shards' WAL files.
func (bc *benchCluster) walBytes() int64 {
	var n int64
	for _, p := range bc.walPaths {
		if fi, err := os.Stat(p); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// storeBytesPerEdge reads the cluster's Stats as a client would.
func (bc *benchCluster) storeBytesPerEdge() (float64, int64, error) {
	st, err := bc.client.Stats()
	if err != nil {
		return 0, 0, fmt.Errorf("stats: %w", err)
	}
	if st.NumEdges == 0 {
		return 0, 0, fmt.Errorf("stats: cluster holds no edges")
	}
	return float64(st.MemoryBytes) / float64(st.NumEdges), st.NumEdges, nil
}
