package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"modellake/internal/lake"
	"modellake/internal/mlql"
	"modellake/internal/model"
	"modellake/internal/obs"
	"modellake/internal/registry"
	"modellake/internal/search"
	"modellake/internal/server"
)

// span is one timed call at a layer boundary. Parent is the index of the
// enclosing span in the recorder, or -1 for a request's outermost span.
type span struct {
	Name    string `json:"name"`
	Req     string `json:"req"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory while enabled. A disabled tracer records
// nothing, so one wrapped LakeAPI serves both the untraced and the traced
// phase of a run.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type spanKey struct{}

// start opens a span named name under the span carried by ctx (if any) and
// returns the context child spans should use plus the function that closes
// the span. With tracing off both are no-ops.
func (t *tracer) start(ctx context.Context, name string) (context.Context, func()) {
	if t == nil || !t.on.Load() {
		return ctx, func() {}
	}
	parent := -1
	if p, ok := ctx.Value(spanKey{}).(int); ok {
		parent = p
	}
	t.mu.Lock()
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Req: obs.RequestID(ctx), StartNs: int64(time.Since(t.epoch)), Parent: parent})
	t.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, idx), func() {
		end := int64(time.Since(t.epoch))
		t.mu.Lock()
		t.spans[idx].EndNs = end
		t.mu.Unlock()
	}
}

// record adds an already timed span (the client's HTTP round trip, whose
// request ID the client chose).
func (t *tracer) record(name, req string, start, end time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Req: req,
		StartNs: int64(start.Sub(t.epoch)), EndNs: int64(end.Sub(t.epoch)), Parent: -1})
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes every span to path as one JSON line each.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of it covered by
// its child spans, indexed like spans.
func selfTimes(spans []span) []time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNs < kids[b].StartNs })
		covered, end := int64(0), s.StartNs
		for _, c := range kids {
			lo, hi := max(c.StartNs, end), min(c.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}

// tracedAPI wraps the LakeAPI the server fronts and times each read and
// write call into the lake or cluster. On a single node it composes the
// related call from Lake.Model and Lake.SearchByHandleContext, and on
// either deployment the query call from mlql.Parse and mlql.ExecuteContext
// over a timing catalog, which is what the unwrapped calls do.
type tracedAPI struct {
	server.LakeAPI
	lk  *lake.Lake // nil for a cluster
	cat mlql.Catalog
	t   *tracer
	// prefix names the deployment layer of the outermost spans: "lake" on
	// a single node, "cluster" for a cluster.
	prefix string
	// rows counts the catalog rows handed to the executor, for
	// catalog.rows_per_result.
	rows atomic.Int64
}

func newTracedAPI(d *deployment, t *tracer) *tracedAPI {
	if d.cl != nil {
		return &tracedAPI{LakeAPI: d.api, cat: d.cl.Catalog(), t: t, prefix: "cluster"}
	}
	return &tracedAPI{LakeAPI: d.api, lk: d.lk, cat: d.lk.Catalog(), t: t, prefix: "lake"}
}

func (a *tracedAPI) SearchByModelContext(ctx context.Context, id, space string, k int) ([]search.Hit, error) {
	ctx, end := a.t.start(ctx, a.prefix+".related")
	defer end()
	if a.lk == nil {
		return a.LakeAPI.SearchByModelContext(ctx, id, space, k)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h, err := a.model(ctx, id)
	if err != nil {
		return nil, err
	}
	_, endSearch := a.t.start(ctx, "lake.search_by_handle")
	defer endSearch()
	return a.lk.SearchByHandleContext(ctx, h, space, k)
}

func (a *tracedAPI) model(ctx context.Context, id string) (*model.Handle, error) {
	_, end := a.t.start(ctx, "lake.model")
	defer end()
	return a.lk.Model(id)
}

func (a *tracedAPI) SearchKeywordContext(ctx context.Context, q string, k int) ([]search.Hit, error) {
	ctx, end := a.t.start(ctx, a.prefix+".search")
	defer end()
	return a.LakeAPI.SearchKeywordContext(ctx, q, k)
}

func (a *tracedAPI) QueryContext(ctx context.Context, q string) (*mlql.Result, error) {
	ctx, end := a.t.start(ctx, a.prefix+".query")
	defer end()
	_, endParse := a.t.start(ctx, "mlql.parse")
	parsed, err := mlql.Parse(q)
	endParse()
	if err != nil {
		return nil, err
	}
	ctx, endExec := a.t.start(ctx, "mlql.execute")
	defer endExec()
	return mlql.ExecuteContext(ctx, parsed, &timedCatalog{Catalog: a.cat, ctx: ctx, t: a.t, rows: &a.rows})
}

func (a *tracedAPI) IngestAllContext(ctx context.Context, items []lake.IngestItem, parallelism int) ([]*registry.Record, []error) {
	ctx, end := a.t.start(ctx, a.prefix+".ingest")
	defer end()
	return a.LakeAPI.IngestAllContext(ctx, items, parallelism)
}

// timedCatalog times each mlql.Catalog call as a child of the request's
// execute span, whose context it carries.
type timedCatalog struct {
	mlql.Catalog
	ctx  context.Context
	t    *tracer
	rows *atomic.Int64
}

func (c *timedCatalog) span(name string) func() {
	_, end := c.t.start(c.ctx, name)
	return end
}

func (c *timedCatalog) Candidates() ([]mlql.Row, error) {
	defer c.span("catalog.candidates")()
	rows, err := c.Catalog.Candidates()
	c.rows.Add(int64(len(rows)))
	return rows, err
}

func (c *timedCatalog) TrainedOn(dataset string, includeVersions bool) (map[string]bool, error) {
	defer c.span("catalog.trained_on")()
	return c.Catalog.TrainedOn(dataset, includeVersions)
}

func (c *timedCatalog) Outperforms(m, bench string) (map[string]bool, error) {
	defer c.span("catalog.outperforms")()
	return c.Catalog.Outperforms(m, bench)
}

func (c *timedCatalog) SimilarityRank(m, space string) ([]mlql.Hit, error) {
	defer c.span("catalog.rank")()
	return c.Catalog.SimilarityRank(m, space)
}

func (c *timedCatalog) TextRank(text string) ([]mlql.Hit, error) {
	defer c.span("catalog.rank")()
	return c.Catalog.TextRank(text)
}

func (c *timedCatalog) BenchmarkRank(bench string) ([]mlql.Hit, error) {
	defer c.span("catalog.rank")()
	return c.Catalog.BenchmarkRank(bench)
}
