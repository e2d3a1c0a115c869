// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It builds a pinned corpus with the real csbuild, serves it
// with the real csserve, drives one workload through at most nproc HTTP
// connections, checks every answer, and prints every metric by name with
// its unit. With -trace 1 it also replays the same request stream in
// process, recording spans around the public call into each module, and
// prints the per-layer metrics instead.
//
// It is normally started through run.sh, which builds the binaries:
//
//	bash perfbench/run.sh --workload distinct --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The line before it is a
// JSON record of the run's environment, sample counts and generator lag;
// the same record, plus the trace's spans, is written under -work.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Pinned corpus: csbuild seed 1, 60,000 documents, 4 shards, format v4.
const (
	corpusSeed   = 1
	corpusDocs   = 60000
	corpusShards = 4
	corpusFormat = 4
	topK         = 10
)

// workload is one traffic mix. Rates are per second of the open-loop
// phase; counts bound the warm-up and closed-loop phases.
type workload struct {
	name string
	// readQPS and writeQPS are the open-loop rates.
	readQPS, writeQPS float64
	// zipf draws reads from a pool of poolSize queries with zipf s=1.0
	// popularity; otherwise every read is a distinct query.
	zipf     bool
	poolSize int
	// warmup and closed are request counts of the warm-up and the
	// closed-loop phase.
	warmup, closed int
	// flags are the csserve flags the workload adds to the defaults.
	flags []string
	// live workloads serve with -ingest and check durability instead of
	// comparing every read to a static reference.
	live bool
	// compactAt and refresh mirror the -ingest flags (also used by the
	// traced replay to refresh and compact at the same stream points).
	compactAt int
	refresh   time.Duration
}

var workloads = []workload{
	{
		name:    "distinct",
		readQPS: 170, warmup: 300, closed: 1500,
	},
	{
		name:    "zipf-hot",
		readQPS: 400, zipf: true, poolSize: 20000, warmup: 1500, closed: 3000,
	},
	{
		name:    "live-ingest",
		readQPS: 170, writeQPS: 30, zipf: true, poolSize: 20000, warmup: 500, closed: 1200,
		live: true, compactAt: 50, refresh: 500 * time.Millisecond,
		flags: []string{"-ingest", "-compact-threshold", "50"},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one named value in the result line.
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

func main() {
	var (
		name    = flag.String("workload", "", "workload: distinct | zipf-hot | live-ingest")
		seed    = flag.Int64("seed", 1, "workload seed (queries, documents, popularity draws)")
		seconds = flag.Int("seconds", 6, "length of the open-loop phase in seconds")
		trace   = flag.Int("trace", 0, "1 = also replay the stream in process and print per-layer metrics")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding csbuild and csserve")
		work    = flag.String("work", ".bench_build", "directory for the data, logs, traces and result records")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fail(fmt.Errorf("unknown -workload %q", *name))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need -seconds >= 1 and -trace 0|1"))
	}
	meta := environment()
	meta["why"] = workloadWhy(w.name)
	b := &bench{meta: meta, w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1, bin: *bin}
	dir, err := os.MkdirTemp(*work, "run-"+w.name+"-")
	if err != nil {
		fail(err)
	}
	b.dir = dir
	running.Lock()
	running.dir = dir
	running.Unlock()
	res, rec, err := b.run()
	if err != nil {
		os.RemoveAll(dir)
		fail(err)
	}
	if err := writeRecord(*work, b, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
	}
	os.RemoveAll(dir)
	metaLine, _ := json.Marshal(rec.Meta)
	fmt.Println(string(metaLine))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// record is everything a run knows, written next to the result line.
type record struct {
	Meta   map[string]any `json:"meta"`
	Result result         `json:"result"`
	// ReadLatencyMs is every successful open-loop read's latency, in
	// due order (the reads are due at a fixed rate).
	ReadLatencyMs []float64 `json:"read_latency_ms"`
	Spans         []Span    `json:"spans,omitempty"`
}

func writeRecord(work string, b *bench, rec record) error {
	dir := filepath.Join(work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v-%d.json", b.w.name, b.seed, b.trace, time.Now().UnixNano()))
	return os.WriteFile(path, data, 0o644)
}

// workloadWhy returns the workload's one-line reason from BENCHMARK.json
// in the working directory (the repository root), if present.
func workloadWhy(name string) string {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return ""
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
	}
	if json.Unmarshal(data, &spec) != nil {
		return ""
	}
	for _, w := range spec.Workloads {
		if w.Name == name {
			return w.Why
		}
	}
	return ""
}

// environment describes the machine and toolchain a result was measured on.
func environment() map[string]any {
	model := ""
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					model = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  model,
		"corpus": map[string]any{
			"seed": corpusSeed, "docs": corpusDocs, "shards": corpusShards, "format": corpusFormat,
		},
	}
}
