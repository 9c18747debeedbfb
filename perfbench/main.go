// Command perfbench is the repository's benchmark: it stream-generates a
// workload's lake, serves it through server.Handler on a loopback listener
// inside this process, drives it with two closed-loop clients, checks the
// answers, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a traced run) with the result as one JSON line last.
//
//	go run . --workload browse --seed 1 --seconds 10 --trace 0
//
// Run it from the repository root; lakes and traces go under .bench_build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload: browse, atlas, declarative or ingest-read")
	seed := flag.Uint64("seed", 1, "seed of the generated population and request streams")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.Parse()
	w, ok := workloads(1)[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %s --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	base := filepath.Join(".bench_build", "perfbench")
	o := options{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		workDir:     filepath.Join(base, fmt.Sprintf("run-%s-%d", w.name, os.Getpid())),
		setupRounds: 3, openRounds: 21,
	}
	if o.trace {
		o.traceOut = filepath.Join(base, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
	}
	res, err := run(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := res.report(os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

func workloadNames() []string {
	var names []string
	for n := range workloads(1) {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported number. N is the sample count behind a
// percentile or mean (0 where the number is a single measurement).
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
	Note  string
	// ReportOnly metrics are printed in the report but left out of the
	// JSON result, whose metrics are exactly those BENCHMARK.json declares.
	ReportOnly bool
}

// result is a finished run: the operation counts, the metrics in report
// order, and context lines for the human-readable report.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	context   []string
	errs      []string
}

func (r *result) add(name, unit string, v float64, n int) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: v, N: n})
}

func (r *result) note(name, unit string, v float64, n int, note string) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: v, N: n, Note: note})
}

// report writes the human-readable lines and returns the result's JSON line.
func (r *result) report(out *os.File) (string, error) {
	for _, c := range r.context {
		fmt.Fprintln(out, c)
	}
	for _, m := range r.metrics {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Fprintf(out, "%-42s %14.6g %-8s %-9s %s\n", m.Name, m.Value, m.Unit, n, m.Note)
	}
	fmt.Fprintf(out, "%-42s %14.6g %-8s %d of %d\n", "failed_frac", ratio(float64(r.failed), float64(r.attempted)),
		"ratio", r.failed, r.attempted)
	for _, e := range r.errs {
		fmt.Fprintln(out, "failure:", e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range r.metrics {
		if m.ReportOnly {
			continue
		}
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", m.Name, v)
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	return string(b), err
}

// runtimeContext records the processor setting the numbers were taken under.
func runtimeContext(w *workload) string {
	return fmt.Sprintf("workload=%s nproc=%d GOMAXPROCS=%d sync=%v cluster=%v models=%d",
		w.name, runtime.NumCPU(), runtime.GOMAXPROCS(0), w.cfg.Sync, w.cluster, w.models)
}
