package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"modellake/internal/lake"
)

// tinyScale shrinks every workload to its floor population so a full run
// takes well under a second of measuring.
const tinyScale = 0.001

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return d
}

func tinyRun(t *testing.T, w *workload, trace bool) *result {
	t.Helper()
	res, err := run(w, options{seed: 3, seconds: 0.4, trace: trace, workDir: t.TempDir(),
		setupRounds: 1, openRounds: 1})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	return res
}

// Every workload emits every metric BENCHMARK.json declares for its mode,
// with the declared unit, and a sample count behind each percentile of a
// route the workload uses.
func TestEveryWorkloadEmitsDeclaredMetrics(t *testing.T) {
	decl := readDeclared(t)
	for _, name := range workloadNames() {
		w := workloads(tinyScale)[name]
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, w, trace)
			if res.failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", name, trace, res.failed, res.attempted, res.errs)
			}
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			got := map[string]metric{}
			for _, m := range res.metrics {
				if !m.ReportOnly {
					got[m.Name] = m
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result, BENCHMARK.json declares %d", name, trace, len(got), len(want))
			}
			for _, d := range want {
				m, ok := got[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.Name)
					continue
				}
				if m.Unit != d.Unit {
					t.Errorf("%s: metric %s has unit %q, declared %q", name, d.Name, m.Unit, d.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s is %v", name, d.Name, m.Value)
				}
			}
			for _, m := range res.metrics {
				if !strings.Contains(m.Name, "_p50_") && !strings.Contains(m.Name, "_p99_") {
					continue
				}
				if used := routeUsed(w, m.Name); used && m.N == 0 {
					t.Errorf("%s trace=%v: percentile %s has no samples", name, trace, m.Name)
				}
			}
			line, err := res.report(devNull(t))
			if err != nil {
				t.Fatalf("%s: report: %v", name, err)
			}
			var out map[string]any
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatalf("%s: result line is not JSON: %v", name, err)
			}
			if len(out) != 4 {
				t.Errorf("%s: result line has keys %v", name, out)
			}
		}
	}
}

// routeUsed reports whether a per-route percentile belongs to a route the
// workload sends requests to.
func routeUsed(w *workload, name string) bool {
	name = strings.TrimPrefix(name, "route.")
	switch {
	case strings.HasPrefix(name, "read_"):
		return true
	case strings.HasPrefix(name, "related_"):
		return w.relatedBehavior+w.relatedWeights > 0
	case strings.HasPrefix(name, "search_"):
		return w.search > 0
	case strings.HasPrefix(name, "query_"):
		return w.query > 0
	case strings.HasPrefix(name, "ingest_"):
		return w.writer
	}
	return false
}

func devNull(t *testing.T) *os.File {
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// A deliberately corrupted answer is counted as a failed operation, and so
// is one whose hits break the query's predicate or the score order.
func TestCorruptedAnswerIsCountedAsFailure(t *testing.T) {
	w := workloads(tinyScale)["declarative"]
	dir := t.TempDir()
	base, err := setUp(w, 5, dir)
	if err != nil {
		t.Fatal(err)
	}
	lk, err := lake.Open(lake.Config{Dir: dir, Seed: lakeSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	ctx := context.Background()
	mix := *w
	mix.relatedBehavior, mix.search, mix.query = 40, 30, 30
	var samples []sample
	for _, r := range readStream(&mix, 5, base, 64) {
		a, err := direct(ctx, lk, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.IDs) >= 2 {
			samples = append(samples, sample{Req: r, Ans: a})
		}
	}
	clean := newTally()
	if err := checkSamples(ctx, lk, samples, clean); err != nil {
		t.Fatal(err)
	}
	if clean.failed != 0 {
		t.Fatalf("unmodified answers failed %d checks: %v", clean.failed, clean.errs)
	}

	corrupt := func(f func(a *answer)) int {
		s := samples[0]
		s.Ans = answer{IDs: append([]string(nil), s.Ans.IDs...), Scores: append([]float64(nil), s.Ans.Scores...)}
		f(&s.Ans)
		tl := newTally()
		tl.attempted = 1
		if err := checkSamples(ctx, lk, []sample{s}, tl); err != nil {
			t.Fatal(err)
		}
		return tl.failed
	}
	if n := corrupt(func(a *answer) { a.Scores[0] = math.Nextafter(a.Scores[0], math.Inf(1)) }); n != 1 {
		t.Errorf("one-ulp score change counted %d failures, want 1", n)
	}
	if n := corrupt(func(a *answer) { a.IDs[0], a.IDs[1] = a.IDs[1], a.IDs[0] }); n != 1 {
		t.Errorf("swapped hits counted %d failures, want 1", n)
	}
	if n := corrupt(func(a *answer) { a.IDs = a.IDs[1:]; a.Scores = a.Scores[1:] }); n != 1 {
		t.Errorf("dropped hit counted %d failures, want 1", n)
	}

	// A hit that breaks the query's predicate fails even when it matches the
	// direct answer.
	var pred *sample
	for i := range samples {
		if samples[i].Req.PredField == "transform" {
			pred = &samples[i]
			break
		}
	}
	if pred == nil {
		t.Fatal("no transform-predicate query in the stream")
	}
	bad := *pred
	bad.Req.PredValue = "no-such-transform"
	tl := newTally()
	if err := checkSamples(ctx, lk, []sample{bad}, tl); err != nil {
		t.Fatal(err)
	}
	if tl.failed != 1 {
		t.Errorf("predicate violation counted %d failures, want 1", tl.failed)
	}

	unsorted := answer{IDs: []string{"a", "b"}, Scores: []float64{1, 2}}
	if structural(request{Kind: kindSearch, K: 10}, unsorted) == nil {
		t.Error("structural check accepted hits in ascending score order")
	}
	if structural(request{Kind: kindRelated, K: 10}, answer{IDs: []string{"a"}, Scores: []float64{1}}) == nil {
		t.Error("structural check accepted a related answer with fewer than k hits")
	}
}

// The same seed reproduces the population's IDs, the read stream and the
// ingest bodies byte for byte; another seed does not.
func TestSeededInputsReproduce(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads(tinyScale)[name]
		b1, err := setUp(w, 11, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		b2, err := setUp(w, 11, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		j1, _ := json.Marshal(b1)
		j2, _ := json.Marshal(b2)
		if !bytes.Equal(j1, j2) {
			t.Fatalf("%s: set-up produced different base models for one seed", name)
		}
		s1, _ := json.Marshal(readStream(w, 11, b1, 4096))
		s2, _ := json.Marshal(readStream(w, 11, b2, 4096))
		if !bytes.Equal(s1, s2) {
			t.Errorf("%s: read stream differs between two generations of seed 11", name)
		}
		s3, _ := json.Marshal(readStream(w, 12, b1, 4096))
		if bytes.Equal(s1, s3) {
			t.Errorf("%s: seeds 11 and 12 gave the same read stream", name)
		}
	}
	i1, err := ingestBodies(11, 5)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := ingestBodies(11, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.Join(i1, nil), bytes.Join(i2, nil)) {
		t.Error("ingest bodies differ between two encodings of seed 11")
	}
	q := &bodyQueue{bodies: i1[:1]}
	if _, err := q.pop(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.pop(); err != errBodiesExhausted {
		t.Errorf("empty body queue returned %v, want errBodiesExhausted", err)
	}
}

// Self time subtracts the union of the child spans, counting overlapping
// children once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 10, EndNs: 40, Parent: 0},
		{Name: "b", StartNs: 30, EndNs: 50, Parent: 0},
		{Name: "c", StartNs: 60, EndNs: 70, Parent: 0},
	}
	if got := selfTimes(spans)[0]; got != time.Duration(50) {
		t.Errorf("root self time %v, want 50ns", got)
	}
}

func TestHistQuantile(t *testing.T) {
	s := scrape{
		`h_bucket{le="0.001"}`: 0,
		`h_bucket{le="0.002"}`: 10,
		`h_bucket{le="+Inf"}`:  10,
		`h_count`:              10,
		`h_sum`:                0.015,
	}
	if got := s.histQuantile("h", 0.5); math.Abs(got-0.0015) > 1e-12 {
		t.Errorf("p50 %v, want 0.0015", got)
	}
	if got := s.histMean("h"); math.Abs(got-0.0015) > 1e-12 {
		t.Errorf("mean %v, want 0.0015", got)
	}
}

// Parking the per-request records and restoring them gives back the same
// latencies and answers, score bits included, and the parked file is gone.
func TestParkedRecordsRoundTrip(t *testing.T) {
	score := math.Nextafter(0.25, 1)
	a := newTally()
	a.lat[kindRelated] = []float64{0.5, 1.25}
	a.samples = []sample{
		{Req: request{Kind: kindRelated, Path: "/v1/related?id=m-1", ID: "m-1", K: 2},
			Ans: answer{IDs: []string{"m-2", "m-3"}, Scores: []float64{score, -0.0}}},
		{Req: request{Kind: kindSearch, Path: "/v1/search?q=x", Q: "x"}},
	}
	b := newTally()
	want := []tally{{lat: a.lat, samples: a.samples}, {lat: b.lat, samples: b.samples}}
	path := filepath.Join(t.TempDir(), "records.gob")
	if err := parkRecords(path, []*tally{a, b}); err != nil {
		t.Fatal(err)
	}
	if a.lat != nil || a.samples != nil {
		t.Fatal("records still held after parking")
	}
	if err := restoreRecords(path, []*tally{a, b}); err != nil {
		t.Fatal(err)
	}
	for i, got := range []*tally{a, b} {
		if len(got.lat[kindRelated]) != len(want[i].lat[kindRelated]) || len(got.samples) != len(want[i].samples) {
			t.Fatalf("tally %d: restored %v, want %v", i, got, want[i])
		}
		for j, x := range want[i].lat[kindRelated] {
			if got.lat[kindRelated][j] != x {
				t.Errorf("tally %d latency %d: %v, want %v", i, j, got.lat[kindRelated][j], x)
			}
		}
		for j, s := range want[i].samples {
			if got.samples[j].Req != s.Req {
				t.Errorf("tally %d sample %d request %+v, want %+v", i, j, got.samples[j].Req, s.Req)
			}
			if err := sameAnswer(got.samples[j].Ans, s.Ans); err != nil {
				t.Errorf("tally %d sample %d: %v", i, j, err)
			}
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("parked file left behind: %v", err)
	}
}
