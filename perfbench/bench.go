package main

import (
	"bufio"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"modellake/internal/lake"
	"modellake/internal/model"
)

// options are one run's settings.
type options struct {
	seed        uint64
	seconds     float64
	trace       bool
	workDir     string // lakes live here; removed when the run ends
	traceOut    string // spans are written here as JSON lines ("" skips)
	setupRounds int
	openRounds  int
}

const mib = 1 << 20

// ingestRate bounds the batches per second the writer can post; the body
// budget is sized from it so the writer never idles, and running out fails
// the run rather than turning the workload read-only.
const ingestRate = 150

// countBatches is the number of serial ingest batches in the count pass.
const countBatches = 4

// run executes one workload run: set-up rounds, open rounds, warm-up, the
// count pass (traced runs only), the measured phase, and the checks.
func run(w *workload, o options) (*result, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.workDir)
	dir := filepath.Join(o.workDir, "lake")
	res := &result{context: []string{runtimeContext(w)}}

	// Set-up: generate and bulk-load the population from scratch, several
	// times; the last lake is the one the run serves.
	var setups []float64
	var base []baseModel
	for i := 0; i < o.setupRounds; i++ {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		start := time.Now()
		b, err := setUp(w, o.seed, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, since(start))
		base = b
	}

	// Inputs, generated before anything is timed.
	stream := readStream(w, o.seed, base, streamLen)
	q := &bodyQueue{}
	if w.writer {
		n := o.openRounds + countBatches + int(o.seconds*ingestRate) + 16
		bodies, err := ingestBodies(o.seed, n)
		if err != nil {
			return nil, err
		}
		q.bodies = bodies
	}
	var embedModels []*model.Model
	if o.trace {
		var err error
		if embedModels, err = embedSample(w, o.seed); err != nil {
			return nil, err
		}
	}

	all := newTally() // every operation of the run, for failed_frac

	// Open rounds: from Open until every route the workload uses has
	// answered once, including the lazy keyword and roster drains.
	var d *deployment
	var ls *liveServer
	var tr *tracer
	var tapi *tracedAPI
	serving := false
	shutdown := func() error {
		if !serving {
			return nil
		}
		serving = false
		err := ls.stop()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		return err
	}
	defer shutdown()
	var opens, openCalls []float64
	for i := 0; i < o.openRounds; i++ {
		if err := shutdown(); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		if d, err = openDeployment(w, w.cfg, dir); err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		openCall := since(start)
		api := d.api
		if o.trace {
			tr = newTracer()
			tapi = newTracedAPI(d, tr)
			api = tapi
		}
		if ls, err = startServer(api); err != nil {
			d.Close()
			return nil, err
		}
		serving = true
		c := newClient(0, ls.base, nil)
		for _, r := range firstOfEachKind(stream) {
			c.read(r, all, false)
		}
		if w.writer {
			body, err := q.pop()
			if err != nil {
				return nil, err
			}
			c.ingest(body, all)
		}
		c.close()
		opens = append(opens, since(start))
		openCalls = append(openCalls, openCall)
	}

	// Warm-up: one client replays the head of the read stream, so the
	// caches settle in the same state on every run of a seed.
	wc := newClient(0, ls.base, nil)
	for i := 0; i < w.warmup; i++ {
		wc.read(stream[i%len(stream)], all, false)
	}
	wc.close()

	var counts map[string]float64
	if o.trace {
		var err error
		if counts, err = countPass(w, d, ls, tapi, stream, q, all); err != nil {
			return nil, err
		}
	}

	// Measured phase. A traced run measures half its time untraced (the
	// counter deltas and the overhead baseline) and half traced.
	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		dur /= 2
	}
	clients := []*client{newClient(1, ls.base, tr), newClient(2, ls.base, tr)}
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()
	var pos atomic.Int64
	lag := startLagSampler(w.cluster, ls)
	defer lag.stop()
	before, err := takeCounters(ls, d)
	if err != nil {
		return nil, err
	}
	m1, el1, err := phase(w, clients, stream, &pos, q, dur)
	if err != nil {
		return nil, err
	}
	after, err := takeCounters(ls, d)
	if err != nil {
		return nil, err
	}
	measured := []*tally{m1}
	m2, el2 := newTally(), 0.0
	if o.trace {
		tr.on.Store(true)
		m2, el2, err = phase(w, clients, stream, &pos, q, dur)
		tr.on.Store(false)
		if err != nil {
			return nil, err
		}
		measured = append(measured, m2)
	}
	lagMax := lag.stop()

	// Live heap after a forced GC, with the generator's buffers released and
	// the measured phase's per-request records parked on disk: they grow
	// with throughput, and the figure is the program's heap, not the
	// benchmark's. The second GC empties the sync.Pool victim caches the
	// first one left.
	stream, q.bodies = nil, nil
	parked := filepath.Join(o.workDir, "records.gob")
	if err := parkRecords(parked, measured); err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMiB := float64(mem.HeapAlloc) / mib
	var tiers lake.TierMemStats
	if d.lk != nil {
		tiers = d.lk.TierMemStats()
	}
	if err := restoreRecords(parked, measured); err != nil {
		return nil, err
	}

	// Checks against direct calls. The exact single-node lake answers for
	// itself; the approximate tiers are checked after the run against the
	// exact flat configuration reopened over the same directory; reads
	// that ran during writes got structural checks only.
	var samples []sample
	for _, m := range measured {
		all.merge(m)
		samples = append(samples, m.samples...)
	}
	ctx := context.Background()
	approximate := w.cfg.PQSubspaces > 0 || w.cfg.DiskResidentVectors || w.cfg.DiskResidentPostings
	if d.lk != nil && !approximate {
		if err := checkSamples(ctx, d.lk, samples, all); err != nil {
			return nil, err
		}
	}
	models := d.api.Count()
	if err := shutdown(); err != nil {
		return nil, err
	}
	disk, err := dirBytes(dir, nil)
	if err != nil {
		return nil, err
	}
	logBytes, err := dirBytes(dir, func(n string) bool { return n == "lake.log" })
	if err != nil {
		return nil, err
	}
	switch {
	case w.cluster:
		if err := checkDurable(w, dir, len(base), all); err != nil {
			return nil, err
		}
	case approximate:
		flat, err := lake.Open(lake.Config{Dir: dir, Seed: lakeSeed})
		if err != nil {
			return nil, fmt.Errorf("reopen flat: %w", err)
		}
		err = checkSamples(ctx, flat, samples, all)
		if cerr := flat.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}
	if o.trace && o.traceOut != "" {
		if err := tr.writeFile(o.traceOut); err != nil {
			return nil, err
		}
	}

	res.attempted, res.failed, res.errs = all.attempted, all.failed, all.errs
	res.correct = all.failed == 0
	res.context = append(res.context, fmt.Sprintf("answers checked=%d acknowledged models=%d",
		len(samples), len(all.acked)))
	if !o.trace {
		reads := m1.sortedLat("")
		res.context = append(res.context, fmt.Sprintf("set-up rounds %.3f s, open rounds %.3f s", setups, opens))
		res.add("setup_s", "s", median(setups), len(setups))
		res.add("open_s", "s", median(opens), len(opens))
		res.add("read_qps", "req/s", float64(m1.okReads)/el1, m1.okReads)
		res.add("read_p50_ms", "ms", percentile(reads, 0.50), len(reads))
		res.add("read_p99_ms", "ms", percentile(reads, 0.99), len(reads))
		// Live heap per model: the ingest-read lake grows by a write-rate
		// dependent amount during the run, so the per-model figure is the
		// one that compares across runs.
		res.add("heap_kib_per_model", "KiB", heapMiB*1024/float64(models), models)
		res.add("disk_bytes_per_model", "B", ratio(float64(disk), float64(models)), models)
		res.metrics = append(res.metrics, metric{Name: "heap_live_mib", Unit: "MiB", Value: heapMiB, ReportOnly: true})
		routeMetrics(res, m1, el1, "")
		return res, nil
	}

	// Per-layer metrics of the traced run: counter deltas over the
	// untraced half, spans from the traced half, counts from the count pass.
	dd := after.m.minus(before.m)
	st := spanStats(tr.snapshot())
	routeMetrics(res, m1, el1, "route.")
	res.add("server.self_ms_p50", "ms", percentile(st.serverSelf, 0.5), len(st.serverSelf))
	res.add("cluster.read_ms_p50", "ms", st.p50("cluster.related", "cluster.search"), st.n("cluster.related", "cluster.search"))
	res.add("cluster.replica_lag_bytes_max", "B", lagMax, 0)
	res.add("cluster.failover_reads", "count", dd.sum("cluster_failover_reads_total"), 0)
	res.add("lake.related_ms_p50", "ms", st.p50("lake.related"), st.n("lake.related"))
	res.add("lake.search_ms_p50", "ms", st.p50("lake.search"), st.n("lake.search"))
	res.add("lake.query_ms_p50", "ms", st.p50("lake.query"), st.n("lake.query"))
	res.add("lake.model_load_ms_p99", "ms", st.pct(0.99, "lake.model"), st.n("lake.model"))
	qh, qm := after.qHits-before.qHits, after.qMiss-before.qMiss
	eh, em := after.eHits-before.eHits, after.eMiss-before.eMiss
	res.add("lake.query_cache_hit_ratio", "ratio", ratio(float64(qh), float64(qh+qm)), int(qh+qm))
	res.add("lake.embed_cache_hit_ratio", "ratio", ratio(float64(eh), float64(eh+em)), int(eh+em))
	res.add("lake.ingest_ms_per_model", "ms", ratio(st.sum("lake.ingest", "cluster.ingest"), float64(m2.models)), m2.models)
	res.add("lake.open_call_s", "s", median(openCalls), len(openCalls))
	res.add("lake.first_answer_s", "s", median(opens)-median(openCalls), len(opens))
	tierSum := float64(tiers.VectorBytes+tiers.PostingsBytes+tiers.KVBytes) / mib
	res.add("lake.tier_vector_mib", "MiB", float64(tiers.VectorBytes)/mib, 0)
	res.add("lake.tier_postings_mib", "MiB", float64(tiers.PostingsBytes)/mib, 0)
	res.add("lake.tier_kv_mib", "MiB", float64(tiers.KVBytes)/mib, 0)
	unattributed := 0.0
	if d.lk != nil {
		unattributed = heapMiB - tierSum
	}
	res.add("lake.heap_unattributed_mib", "MiB", unattributed, 0)
	res.add("mlql.parse_us_p50", "us", st.p50("mlql.parse")*1000, st.n("mlql.parse"))
	res.add("mlql.exec_self_ms_p50", "ms", st.selfP50("mlql.execute"), st.n("mlql.execute"))
	res.add("catalog.candidates_ms_p50", "ms", st.p50("catalog.candidates"), st.n("catalog.candidates"))
	res.add("catalog.rank_ms_p50", "ms", st.p50("catalog.rank"), st.n("catalog.rank"))
	for _, c := range countMetrics {
		res.note(c.name, c.unit, counts[c.name], 0, c.note)
	}
	res.add("search.keyword_lock_wait_ms_mean", "ms", dd.histMean("keyword_search_lock_wait_seconds")*1000,
		int(dd.sum("keyword_search_lock_wait_seconds_count")))
	res.add("search.keyword_merges", "count", dd.sum("keyword_seg_merges_total"), 0)
	res.add("search.keyword_merge_s", "s", dd.sum("keyword_seg_merge_seconds_sum"), 0)
	embedMs, err := embedMsPerModel(w, embedModels)
	if err != nil {
		return nil, err
	}
	res.add("embedding.embed_ms_per_model", "ms", embedMs, len(embedModels))
	res.add("kvstore.commit_batch_mean", "records", dd.histMean("kvstore_commit_batch_size"),
		int(dd.sum("kvstore_commit_batch_size_count")))
	res.note("kvstore.fsync_ms_p50", "ms", dd.histQuantile("kvstore_fsync_duration_seconds", 0.5)*1000,
		int(dd.sum("kvstore_fsync_duration_seconds_count")), "bucket estimate of this machine's fsync")
	res.add("kvstore.log_bytes_per_model", "B", ratio(float64(logBytes), float64(models)), models)
	res.note("blob.put_ms_p50", "ms", dd.histQuantile("blob_put_duration_seconds", 0.5)*1000,
		int(dd.sum("blob_put_duration_seconds_count")), "bucket estimate")
	res.add("runtime.allocs_per_req", "allocs", ratio(float64(after.mallocs-before.mallocs), float64(m1.requests)), m1.requests)
	res.add("runtime.gc_cpu_frac", "ratio", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), 0)
	untraced, traced := float64(m1.okReads)/el1, ratio(float64(m2.okReads), el2)
	res.add("trace.overhead_frac", "ratio", 1-ratio(traced, untraced), m2.okReads)
	return res, nil
}

// records are the per-request records of a run's measured tallies.
type records struct {
	Lat     []map[string][]float64
	Samples [][]sample
}

// parkRecords writes the latencies and sampled answers of ts to path and
// drops them from memory; restoreRecords reads them back.
func parkRecords(path string, ts []*tally) error {
	var r records
	for _, t := range ts {
		r.Lat = append(r.Lat, t.lat)
		r.Samples = append(r.Samples, t.samples)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = gob.NewEncoder(bw).Encode(r)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("park records: %w", err)
	}
	for _, t := range ts {
		t.lat, t.samples = nil, nil
	}
	return nil
}

func restoreRecords(path string, ts []*tally) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var r records
	if err := gob.NewDecoder(bufio.NewReader(f)).Decode(&r); err != nil {
		return fmt.Errorf("restore records: %w", err)
	}
	for i, t := range ts {
		t.lat, t.samples = r.Lat[i], r.Samples[i]
	}
	return os.Remove(path)
}

// countMetrics are the per-layer numbers the count pass produces; they
// repeat exactly on every run of a seed.
var countMetrics = []struct{ name, unit, note string }{
	{"server.resp_bytes_per_req", "B", "count pass"},
	{"catalog.rows_per_result", "rows", "count pass"},
	{"kvstore.reads_per_query", "reads", "count pass; gets and scans per read request"},
	{"search.keyword_blocks_scanned_per_query", "blocks", "count pass; per keyword index search"},
	{"search.keyword_blocks_skipped_ratio", "ratio", "count pass"},
	{"index.candidates_per_search.flat", "rows", "count pass"},
	{"index.candidates_per_search.flat_pq", "rows", "count pass"},
	{"index.candidates_per_search.disk_flat", "rows", "count pass"},
	{"index.pq_lut_builds_per_search", "builds", "count pass"},
	{"tensor.flops_per_related", "flop", "count pass; computed from candidate counts"},
	{"tensor.bytes_per_related", "B", "count pass; computed from candidate counts"},
	{"kvstore.fsyncs_per_model", "fsyncs", "count pass; serial batches"},
	{"blob.fsyncs_per_model", "fsyncs", "count pass; serial batches"},
}

// routeMetrics adds the per-route latencies and the writer's throughput of
// an untraced measured phase. With an empty prefix they are report lines
// only; with a prefix they are per-layer metrics of the traced run.
func routeMetrics(res *result, t *tally, elapsed float64, prefix string) {
	for _, kind := range []string{kindRelated, kindSearch, kindQuery, kindIngest} {
		xs := t.sortedLat(kind)
		for _, p := range []struct {
			name string
			q    float64
		}{{"_p50_ms", 0.5}, {"_p99_ms", 0.99}} {
			res.metrics = append(res.metrics, metric{Name: prefix + kind + p.name, Unit: "ms",
				Value: percentile(xs, p.q), N: len(xs), ReportOnly: prefix == ""})
		}
	}
	res.metrics = append(res.metrics, metric{Name: prefix + "ingest_models_per_s", Unit: "models/s",
		Value: float64(t.models) / elapsed, N: t.models, ReportOnly: prefix == ""})
}
