// Command e2ebench is the repository's end-to-end benchmark. It hosts a
// 2-shard cluster on loopback TCP in its own process and drives one of
// three workloads against it from at most two request goroutines:
//
//	train  pipelined GraphSAGE training over ~1M Zipf-skewed edges
//	knn    open-loop k-NN serving requests over a small trained graph
//	churn  a WAL-durable write stream beside a 2-hop sampling reader
//
// Usage (from the repository root; e2ebench/run.sh builds and runs it):
//
//	e2ebench --workload train --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, measured with tracing off; with --trace 1 the run
// measures untraced, traced and untraced thirds on the same inputs, writes
// the traced third's spans to --trace-dir, and reports the per-layer table
// and the tracing overhead. See README.md for the metric map.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	smoke    bool // tiny inputs for the self-test
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eUnits lists the end-to-end metrics every workload reports.
var e2eUnits = map[string]string{
	"setup_s":              "s",
	"peak_rss_mb":          "MB",
	"store_bytes_per_edge": "B",
	"work_per_s":           "1/s",
	"op_p50_ms":            "ms",
	"sample_p50_ms":        "ms",
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "train, knn or churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "e2ebench", "traces"), "directory for span files")
	flag.Parse()
	cfg.trace = trace == 1

	host := readHost(cfg)
	hb, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(hb))

	res, err := run(cfg, host)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one workload and assembles its result line.
func run(cfg config, host hostInfo) (*result, error) {
	var w workload
	switch cfg.workload {
	case "train":
		w = newTrain(cfg)
	case "knn":
		w = newKNN(cfg)
	case "churn":
		w = newChurn(cfg)
	default:
		return nil, fmt.Errorf("unknown --workload %q (train, knn, churn)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	o, err := execute(cfg, w, host)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: o.checkErr == nil, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	if o.checkErr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: correctness check failed:", o.checkErr)
	}
	if cfg.trace {
		for name, unit := range layerUnits {
			res.Metrics[name] = metric{Value: o.layers[name], Unit: unit}
		}
	} else {
		for name, unit := range e2eUnits {
			res.Metrics[name] = metric{Value: o.e2e[name], Unit: unit}
		}
	}
	return res, nil
}

// hostInfo records where and on what a result was produced.
type hostInfo struct {
	Source     string  `json:"source"`           // digest of the Go sources
	Commit     string  `json:"commit,omitempty"` // git HEAD, when there is one
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
}

func readHost(cfg config) hostInfo {
	return hostInfo{
		Source:     sourceDigest(),
		Commit:     gitHead(),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

// sourceDigest identifies the code under test by a digest of every Go
// source and module file below the working directory, so uncommitted
// changes give a different digest.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// gitHead returns the commit .git/HEAD points at, looking in packed-refs
// when the ref is not a loose file, or "" outside a repository (benchmark
// checkouts carry no .git).
func gitHead() string {
	b, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref := strings.TrimSpace(string(b))
	r, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref
	}
	if c, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
		return strings.TrimSpace(string(c))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if c, name, ok := strings.Cut(line, " "); ok && name == r {
			return c
		}
	}
	return ""
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sampleRSS samples the process's resident set every 20 ms until the
// returned stop function is called, which returns the largest sample in MB.
func sampleRSS() (stop func() float64) {
	done := make(chan struct{})
	peak := make(chan float64)
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		max := rssMB()
		for {
			select {
			case <-done:
				peak <- max
				return
			case <-tick.C:
				if v := rssMB(); v > max {
					max = v
				}
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

// rssMB reads the process's current resident set from /proc/self/statm.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
