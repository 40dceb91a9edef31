package main

import (
	"runtime"
)

// rpcMethods are the server methods on the measured paths.
var rpcMethods = []string{"SampleNeighbors", "Features", "ApplyBatch"}

// layerUnits lists every per-layer metric a traced run reports. Layers a
// workload does not exercise report 0.
var layerUnits = map[string]string{
	"storage.sample.calls":                "count",
	"storage.sample.busy_s":               "s",
	"storage.apply.events":                "count",
	"storage.apply.busy_s":                "s",
	"eventlog.append.busy_s":              "s",
	"eventlog.sync.busy_s":                "s",
	"eventlog.bytes_per_event":            "B",
	"server.SampleNeighbors.calls":        "count",
	"server.SampleNeighbors.busy_s":       "s",
	"server.Features.calls":               "count",
	"server.Features.busy_s":              "s",
	"server.ApplyBatch.calls":             "count",
	"server.ApplyBatch.busy_s":            "s",
	"server.self_s":                       "s",
	"admission.wait_s":                    "s",
	"admission.shed":                      "count",
	"wire.bytes_per_call.SampleNeighbors": "B",
	"wire.bytes_per_call.Features":        "B",
	"wire.bytes_per_call.ApplyBatch":      "B",
	"client.attempts":                     "count",
	"client.retries":                      "count",
	"client.useful_ratio":                 "ratio",
	"view.sample_subgraph.calls":          "count",
	"view.sample_subgraph.busy_s":         "s",
	"view.sample_neighbors.calls":         "count",
	"view.sample_neighbors.busy_s":        "s",
	"view.features.calls":                 "count",
	"view.features.busy_s":                "s",
	"view.labels.calls":                   "count",
	"view.labels.busy_s":                  "s",
	"net.busy_s":                          "s",
	"pipeline.build.busy_s":               "s",
	"pipeline.stall_s":                    "s",
	"pipeline.hit_rate":                   "ratio",
	"gnn.train_step.calls":                "count",
	"gnn.train_step.busy_s":               "s",
	"serve.knn.busy_s":                    "s",
	"serve.knn.self_s":                    "s",
	"ann.search.mean_us":                  "us",
	"setup.warm_s":                        "s",
	"setup.warm_view_s":                   "s",
	"setup_s.median":                      "s",
	"knn.gen_late_ms":                     "ms",
	"knn.queue_s":                         "s",
	"churn.sample_seeds_per_s":            "1/s",
	"go.gc_pause_s":                       "s",
	"go.alloc_bytes_per_op":               "B",
	"unattributed_share":                  "ratio",
	"failed_share":                        "ratio",
	"trace.overhead_work_share":           "ratio",
	"trace.overhead_op_p50_share":         "ratio",
	"trace.spans":                         "count",
	"untraced.op_p90_ms":                  "ms",
	"untraced.op_p99_ms":                  "ms",
	"untraced.sample_p99_ms":              "ms",
}

// counters is a flat reading of every cumulative counter the per-layer
// table is computed from.
type counters map[string]float64

func (c counters) minus(before counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// readCounters reads the storage, eventlog, server, client and runtime
// counters.
func readCounters(e *env) counters {
	c := counters{}
	if e.store != nil {
		c["storage.sample.calls"] = float64(e.store.sample.n.Load())
		c["storage.sample.ns"] = float64(e.store.sample.ns.Load())
		c["storage.apply.events"] = float64(e.store.apply.n.Load())
		c["storage.apply.ns"] = float64(e.store.apply.ns.Load())
	}
	c["eventlog.append.events"] = float64(e.wal.append.n.Load())
	c["eventlog.append.ns"] = float64(e.wal.append.ns.Load())
	c["eventlog.sync.ns"] = float64(e.wal.sync.ns.Load())
	c["eventlog.bytes"] = float64(e.bc.walBytes())
	for _, m := range e.bc.srvMetrics {
		for _, method := range rpcMethods {
			s := m.ServerLatency.With(method).Snapshot()
			c["server."+method+".calls"] += float64(s.Count)
			c["server."+method+".ns"] += float64(s.Sum)
			p := m.PayloadBytes.With(method).Snapshot()
			c["wire."+method+".calls"] += float64(p.Count)
			c["wire."+method+".bytes"] += float64(p.Sum)
		}
		for _, pri := range m.AdmissionWait.Labels() {
			c["admission.wait.ns"] += float64(m.AdmissionWait.With(pri).Snapshot().Sum)
		}
		c["admission.shed"] += float64(m.RequestsShed.Sum())
	}
	cm := e.bc.client.Metrics()
	c["client.attempts"] = float64(cm.RPCAttempts.Load())
	c["client.retries"] = float64(cm.RPCRetries.Load())
	for _, method := range rpcMethods {
		c["client.rpc.ns"] += float64(cm.ClientLatency.With(method).Snapshot().Sum)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["go.gc_pause_ns"] = float64(ms.PauseTotalNs)
	c["go.alloc_bytes"] = float64(ms.TotalAlloc)
	return c
}

// layerTable computes the per-layer metrics of a traced phase from the
// counter deltas d and the phase's spans.
func layerTable(d counters, spans []span, p *phase, roots map[string]bool) map[string]float64 {
	out := make(map[string]float64, len(layerUnits))
	for name := range layerUnits {
		out[name] = 0
	}
	sec := func(ns float64) float64 { return ns / 1e9 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	out["storage.sample.calls"] = d["storage.sample.calls"]
	out["storage.sample.busy_s"] = sec(d["storage.sample.ns"])
	out["storage.apply.events"] = d["storage.apply.events"]
	out["storage.apply.busy_s"] = sec(d["storage.apply.ns"])

	out["eventlog.append.busy_s"] = sec(d["eventlog.append.ns"])
	out["eventlog.sync.busy_s"] = sec(d["eventlog.sync.ns"])
	out["eventlog.bytes_per_event"] = ratio(d["eventlog.bytes"], d["eventlog.append.events"])

	var serverNs, clientNs float64
	for _, method := range rpcMethods {
		out["server."+method+".calls"] = d["server."+method+".calls"]
		out["server."+method+".busy_s"] = sec(d["server."+method+".ns"])
		out["wire.bytes_per_call."+method] = ratio(d["wire."+method+".bytes"], d["wire."+method+".calls"])
		serverNs += d["server."+method+".ns"]
	}
	clientNs = d["client.rpc.ns"]
	// Handler time not spent in the storage or eventlog layers below it.
	out["server.self_s"] = sec(serverNs - d["storage.sample.ns"] - d["storage.apply.ns"] -
		d["eventlog.append.ns"] - d["eventlog.sync.ns"])
	out["admission.wait_s"] = sec(d["admission.wait.ns"])
	out["admission.shed"] = d["admission.shed"]
	// Client-observed RPC attempt time not spent queued for admission or in
	// a handler: codec, transport and loopback.
	out["net.busy_s"] = sec(clientNs - serverNs - d["admission.wait.ns"])

	out["client.attempts"] = d["client.attempts"]
	out["client.retries"] = d["client.retries"]
	useful := d["client.attempts"] - d["client.retries"] - float64(p.failed)
	out["client.useful_ratio"] = ratio(max(useful, 0), d["client.attempts"])

	times := selfTimes(spans)
	get := func(name string) layerTime {
		if lt := times[name]; lt != nil {
			return *lt
		}
		return layerTime{}
	}
	for _, op := range []string{"sample_subgraph", "sample_neighbors", "features", "labels"} {
		lt := get("view." + op)
		out["view."+op+".calls"] = float64(lt.Calls)
		out["view."+op+".busy_s"] = sec(float64(lt.BusyNs))
	}
	out["pipeline.build.busy_s"] = sec(float64(get("pipeline.build").BusyNs))
	step := get("gnn.train_step")
	out["gnn.train_step.calls"] = float64(step.Calls)
	out["gnn.train_step.busy_s"] = sec(float64(step.BusyNs))
	knn := get("serve.knn")
	out["serve.knn.busy_s"] = sec(float64(knn.BusyNs))
	out["serve.knn.self_s"] = sec(float64(knn.SelfNs))

	out["go.gc_pause_s"] = sec(d["go.gc_pause_ns"])
	out["go.alloc_bytes_per_op"] = ratio(d["go.alloc_bytes"], float64(p.attempted))
	out["unattributed_share"] = unattributedShare(spans, roots)
	out["failed_share"] = ratio(float64(p.failed), float64(p.attempted))
	return out
}
