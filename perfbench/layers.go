package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"modellake/internal/embedding"
	"modellake/internal/lakegen"
	"modellake/internal/model"
)

// counters is the process state read around a measured phase: the
// server's /metrics exposition, the runtime's allocation and CPU counters,
// and on a single node the lake's cache statistics. The lake_*_cache_*
// series on /metrics follow the most recently opened lake, which on a
// cluster is an arbitrary node, so cache ratios come from the Lake methods
// and are left out on the cluster.
type counters struct {
	m               scrape
	mallocs         uint64
	gcCPU, totalCPU float64
	qHits, qMiss    uint64
	eHits, eMiss    uint64
}

func takeCounters(ls *liveServer, d *deployment) (counters, error) {
	var c counters
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	m, err := fetchMetrics(hc, ls.base)
	if err != nil {
		return c, err
	}
	c.m = m
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		c.totalCPU = samples[1].Value.Float64()
	}
	if d.lk != nil {
		c.qHits, c.qMiss = d.lk.QueryCacheStats()
		c.eHits, c.eMiss = d.lk.EmbedCacheStats()
	}
	return c, nil
}

// lagSampler polls the replica-lag gauges once a second while the measured
// phase runs and keeps the largest value seen.
type lagSampler struct {
	stopc chan struct{}
	done  chan float64
	once  sync.Once
	worst float64
}

func startLagSampler(on bool, ls *liveServer) *lagSampler {
	s := &lagSampler{stopc: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		hc := &http.Client{}
		defer hc.CloseIdleConnections()
		worst := 0.0
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			if on {
				if m, err := fetchMetrics(hc, ls.base); err == nil {
					worst = max(worst, m.max("cluster_replica_lag_bytes"))
				}
			}
			select {
			case <-s.stopc:
				s.done <- worst
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampler, waits for it, and returns the largest lag seen.
// Calling it again returns the same value.
func (s *lagSampler) stop() float64 {
	s.once.Do(func() {
		close(s.stopc)
		s.worst = <-s.done
	})
	return s.worst
}

// firstOfEachKind returns the first request of each kind, space and query
// shape in stream order: the requests that prove every read route of the
// workload answers, and that trigger every lazy drain its reads depend on
// (the keyword index's, for instance, only on a text-ranked query).
func firstOfEachKind(stream []request) []request {
	seen := map[string]bool{}
	var out []request
	for _, r := range stream {
		key := r.Kind + "/" + r.Space + "/" + r.Shape
		if !seen[key] {
			seen[key] = true
			out = append(out, r)
		}
	}
	return out
}

// embedSampleN is the number of models the embedding timing runs over.
const embedSampleN = 64

// embedSample regenerates the head of the workload's write stream: the
// fresh models of the ingest-read writer, or the set-up population for the
// read-only workloads.
func embedSample(w *workload, seed uint64) ([]*model.Model, error) {
	if w.writer {
		seed = freshSeed(seed)
	}
	var out []*model.Model
	err := lakegen.Stream(populationSpec(seed, embedSampleN), func(m *lakegen.Member) error {
		if len(out) < embedSampleN {
			out = append(out, m.Model)
		}
		return nil
	})
	return out, err
}

// embedders builds the behaviour and weight embedders with the parameters
// lake.Open gives them for the workload's config.
func embedders(w *workload) (*embedding.BehaviorEmbedder, *embedding.WeightEmbedder) {
	orDefault := func(v, d int) int {
		if v <= 0 {
			return d
		}
		return v
	}
	c := w.cfg
	return embedding.NewBehaviorEmbedder(orDefault(c.InputDim, 8), orDefault(c.Probes, 32), orDefault(c.MaxClasses, 8), c.Seed),
		embedding.NewWeightEmbedder(32, 4, c.Seed+1)
}

// embedMsPerModel times both embedders over the sample models and returns
// the median per-model time of five passes.
func embedMsPerModel(w *workload, models []*model.Model) (float64, error) {
	be, we := embedders(w)
	var passes []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		for _, m := range models {
			h := model.NewHandle(m)
			if _, err := be.Embed(h); err != nil {
				return 0, fmt.Errorf("embed behaviour: %w", err)
			}
			if _, err := we.Embed(h); err != nil {
				return 0, fmt.Errorf("embed weights: %w", err)
			}
		}
		passes = append(passes, ratio(float64(time.Since(start))/float64(time.Millisecond), float64(len(models))))
	}
	return median(passes), nil
}

// tensorWork computes the arithmetic and bytes one related search's index
// scan did from its candidate counters: an exact row costs 2·dim flops over
// dim float64s; a product-quantized ADC row costs one table lookup and add
// per subspace over one code byte each, and its shortlist rows are rescored
// exactly. n is the index's row count and m the PQ subspace count.
func tensorWork(delta scrape, dim, n, m float64) (flops, bytes float64) {
	exact := delta.sum("ann_candidates_scanned_total", `kind="flat"`)
	for _, kind := range []string{"flat_pq", "disk_flat"} {
		searches := delta.sum("ann_searches_total", `kind="`+kind+`"`)
		rows := delta.sum("ann_candidates_scanned_total", `kind="`+kind+`"`)
		if m > 0 && rows > searches*n {
			adc := searches * n
			flops += adc * m
			bytes += adc * m
			rows -= adc
		}
		exact += rows
	}
	return flops + exact*2*dim, bytes + exact*8*dim
}

// countPass runs one client serially over the stream segment that follows
// the warm-up's, with no timers, then (on a writer workload) a few serial ingest batches,
// and derives from /metrics differences the counts that must repeat
// exactly on every run of a seed.
func countPass(w *workload, d *deployment, ls *liveServer, tapi *tracedAPI, stream []request,
	q *bodyQueue, all *tally) (map[string]float64, error) {
	if d.cl != nil {
		if err := d.cl.FlushReplication(context.Background()); err != nil {
			return nil, err
		}
	}
	c := newClient(3, ls.base, nil)
	defer c.close()
	t := newTally()
	start, err := fetchMetrics(c.hc, ls.base)
	if err != nil {
		return nil, err
	}
	be, we := embedders(w)
	dims := map[string]float64{"behavior": float64(be.Dim()), "weights": float64(we.Dim())}
	n, m := float64(d.api.Count()), float64(w.cfg.PQSubspaces)
	rows0 := tapi.rows.Load()
	prev := start
	var flops, bytes float64
	related, hits := 0, 0
	for i := w.warmup; i < w.warmup+w.countPass; i++ {
		r := stream[i%len(stream)]
		a := c.read(r, t, false)
		cur, err := fetchMetrics(c.hc, ls.base)
		if err != nil {
			return nil, err
		}
		switch r.Kind {
		case kindRelated:
			f, b := tensorWork(cur.minus(prev), dims[r.Space], n, m)
			flops, bytes = flops+f, bytes+b
			related++
		case kindQuery:
			hits += len(a.IDs)
		}
		prev = cur
	}
	dr := prev.minus(start)
	out := map[string]float64{
		"server.resp_bytes_per_req": ratio(float64(t.bytes), float64(t.requests)),
		"kvstore.reads_per_query": ratio(dr.sum("kvstore_ops_total", `op="get"`)+dr.sum("kvstore_ops_total", `op="scan"`),
			float64(w.countPass)),
		"catalog.rows_per_result":                 ratio(float64(tapi.rows.Load()-rows0), float64(hits)),
		"search.keyword_blocks_scanned_per_query": ratio(dr.sum("keyword_seg_blocks_scanned_total"), dr.sum("keyword_searches_total")),
		"search.keyword_blocks_skipped_ratio": ratio(dr.sum("keyword_seg_blocks_skipped_total"),
			dr.sum("keyword_seg_blocks_skipped_total")+dr.sum("keyword_seg_blocks_scanned_total")),
		"index.pq_lut_builds_per_search": ratio(dr.sum("ann_pq_lut_builds_total"),
			dr.sum("ann_searches_total", `kind="flat_pq"`)+dr.sum("ann_searches_total", `kind="disk_flat"`)),
		"tensor.flops_per_related": ratio(flops, float64(related)),
		"tensor.bytes_per_related": ratio(bytes, float64(related)),
	}
	for _, kind := range []string{"flat", "flat_pq", "disk_flat"} {
		out["index.candidates_per_search."+kind] = ratio(dr.sum("ann_candidates_scanned_total", `kind="`+kind+`"`),
			dr.sum("ann_searches_total", `kind="`+kind+`"`))
	}
	if w.writer {
		for i := 0; i < countBatches; i++ {
			body, err := q.pop()
			if err != nil {
				return nil, err
			}
			c.ingest(body, t)
		}
		if err := d.cl.FlushReplication(context.Background()); err != nil {
			return nil, err
		}
		end, err := fetchMetrics(c.hc, ls.base)
		if err != nil {
			return nil, err
		}
		dw := end.minus(prev)
		models := float64(countBatches * batchModels)
		out["kvstore.fsyncs_per_model"] = dw.sum("kvstore_fsync_duration_seconds_count") / models
		out["blob.fsyncs_per_model"] = dw.sum("blob_fsync_duration_seconds_count") / models
	}
	all.merge(t)
	return out, nil
}

// spanSummary indexes a traced run's spans for the per-layer metrics.
type spanSummary struct {
	dur  map[string][]float64 // milliseconds by span name
	self map[string][]float64
	// serverSelf is, per request, the HTTP round trip minus the wrapped
	// LakeAPI call: the server's routing, decoding and encoding plus the
	// loopback transport.
	serverSelf []float64
}

func spanStats(spans []span) *spanSummary {
	s := &spanSummary{dur: map[string][]float64{}, self: map[string][]float64{}}
	self := selfTimes(spans)
	top := map[string]span{}
	for i, sp := range spans {
		ms := float64(sp.dur()) / float64(time.Millisecond)
		s.dur[sp.Name] = append(s.dur[sp.Name], ms)
		s.self[sp.Name] = append(s.self[sp.Name], float64(self[i])/float64(time.Millisecond))
		if sp.Parent < 0 && sp.Name != "http" {
			top[sp.Req] = sp
		}
	}
	for _, sp := range spans {
		if sp.Name != "http" {
			continue
		}
		if api, ok := top[sp.Req]; ok {
			s.serverSelf = append(s.serverSelf, float64(sp.dur()-api.dur())/float64(time.Millisecond))
		}
	}
	for _, m := range []map[string][]float64{s.dur, s.self} {
		for _, xs := range m {
			sort.Float64s(xs)
		}
	}
	sort.Float64s(s.serverSelf)
	return s
}

func (s *spanSummary) merged(m map[string][]float64, names []string) []float64 {
	var xs []float64
	for _, n := range names {
		xs = append(xs, m[n]...)
	}
	sort.Float64s(xs)
	return xs
}

func (s *spanSummary) pct(q float64, names ...string) float64 {
	return percentile(s.merged(s.dur, names), q)
}

func (s *spanSummary) p50(names ...string) float64 { return s.pct(0.5, names...) }

func (s *spanSummary) selfP50(names ...string) float64 {
	return percentile(s.merged(s.self, names), 0.5)
}

func (s *spanSummary) n(names ...string) int { return len(s.merged(s.dur, names)) }

func (s *spanSummary) sum(names ...string) float64 {
	total := 0.0
	for _, x := range s.merged(s.dur, names) {
		total += x
	}
	return total
}
