package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"modellake/internal/mlql"
	"modellake/internal/search"
	"modellake/internal/server"
)

// liveServer is server.Handler on a real loopback listener inside the
// benchmark process.
type liveServer struct {
	base string
	srv  *http.Server
	done chan error
}

func startServer(api server.LakeAPI) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	cfg := server.DefaultConfig()
	cfg.Logger = log.New(os.Stderr, "modellake: ", log.LstdFlags)
	s := &liveServer{
		base: "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: server.NewWith(api, cfg).Handler()},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// client is one closed-loop connection: it sends its next request only
// after the previous response has been read in full.
type client struct {
	id   int
	hc   *http.Client
	base string
	t    *tracer // nil in untraced runs
	seq  int
}

func newClient(id int, base string, t *tracer) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{id: id, hc: &http.Client{Transport: tr}, base: base, t: t}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response. The round trip is
// recorded as an "http" span when tracing is on.
func (c *client) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	c.seq++
	reqID := fmt.Sprintf("c%d-%d", c.id, c.seq)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("X-Request-ID", reqID)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	c.t.record("http", reqID, start, end)
	return resp.StatusCode, out, end.Sub(start), err
}

// answer is a decoded read response: the ranked hits of a related, search
// or query request.
type answer struct {
	IDs    []string
	Scores []float64
}

func decodeAnswer(kind string, body []byte) (answer, error) {
	var a answer
	switch kind {
	case kindQuery:
		var res struct {
			Hits []mlql.Hit `json:"hits"`
		}
		if err := json.Unmarshal(body, &res); err != nil {
			return a, err
		}
		for _, h := range res.Hits {
			a.IDs = append(a.IDs, h.ID)
			a.Scores = append(a.Scores, h.Score)
		}
	default:
		var hits []search.Hit
		if err := json.Unmarshal(body, &hits); err != nil {
			return a, err
		}
		for _, h := range hits {
			a.IDs = append(a.IDs, h.ID)
			a.Scores = append(a.Scores, h.Score)
		}
	}
	return a, nil
}

// structural checks what any answer must satisfy regardless of the lake's
// contents: related requests return exactly k hits, every hit has an ID,
// and similarity and BM25 hits are ordered best first.
func structural(r request, a answer) error {
	if r.Kind == kindRelated && len(a.IDs) != r.K {
		return fmt.Errorf("%s: %d hits, want %d", r.Path, len(a.IDs), r.K)
	}
	if r.K > 0 && len(a.IDs) > r.K {
		return fmt.Errorf("%s: %d hits, want at most %d", r.Path, len(a.IDs), r.K)
	}
	for i, id := range a.IDs {
		if id == "" {
			return fmt.Errorf("%s: hit %d has no ID", r.Path, i)
		}
		if r.Kind != kindQuery && i > 0 && a.Scores[i] > a.Scores[i-1] {
			return fmt.Errorf("%s: hits not sorted by score at %d", r.Path, i)
		}
	}
	return nil
}

// sample is a recorded read: the request and the answer it got.
type sample struct {
	Req request
	Ans answer
}

// tally is what one client (or a merged phase) observed.
type tally struct {
	lat       map[string][]float64 // milliseconds per request kind, successes only
	attempted int
	failed    int
	okReads   int
	models    int      // models acknowledged by ingest batches
	acked     []string // acknowledged model IDs
	seen      map[string]bool
	samples   []sample
	bytes     int64 // response bytes over all requests
	requests  int
	errs      []string // first few failure reasons, for the report
}

func newTally() *tally { return &tally{lat: map[string][]float64{}, seen: map[string]bool{}} }

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	for k, v := range o.lat {
		t.lat[k] = append(t.lat[k], v...)
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.okReads += o.okReads
	t.models += o.models
	t.acked = append(t.acked, o.acked...)
	for id := range o.seen {
		t.seen[id] = true
	}
	t.samples = append(t.samples, o.samples...)
	t.bytes += o.bytes
	t.requests += o.requests
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// sortedLat returns the kind's latencies sorted ascending; kind "" merges
// every read kind.
func (t *tally) sortedLat(kind string) []float64 {
	var xs []float64
	if kind == "" {
		for _, k := range []string{kindRelated, kindSearch, kindQuery} {
			xs = append(xs, t.lat[k]...)
		}
	} else {
		xs = append(xs, t.lat[kind]...)
	}
	sort.Float64s(xs)
	return xs
}

// read sends one read request and checks its answer, recording it for the
// post-run checks when keep is set.
func (c *client) read(r request, t *tally, keep bool) answer {
	t.attempted++
	t.requests++
	status, body, lat, err := c.do(http.MethodGet, r.Path, nil)
	t.bytes += int64(len(body))
	if err != nil {
		t.fail("%s: %v", r.Path, err)
		return answer{}
	}
	if status != http.StatusOK {
		t.fail("%s: status %d", r.Path, status)
		return answer{}
	}
	a, err := decodeAnswer(r.Kind, body)
	if err == nil {
		err = structural(r, a)
	}
	if err != nil {
		t.fail("%v", err)
		return a
	}
	t.okReads++
	t.lat[r.Kind] = append(t.lat[r.Kind], float64(lat)/float64(time.Millisecond))
	for _, id := range a.IDs {
		t.seen[id] = true
	}
	if keep {
		t.samples = append(t.samples, sample{Req: r, Ans: a})
	}
	return a
}

// ingest posts one pre-encoded batch and checks that every model in it
// was created.
func (c *client) ingest(body []byte, t *tally) {
	t.attempted++
	t.requests++
	status, resp, lat, err := c.do(http.MethodPost, "/v1/models/batch", body)
	t.bytes += int64(len(resp))
	if err != nil {
		t.fail("ingest: %v", err)
		return
	}
	if status != http.StatusCreated {
		t.fail("ingest: status %d: %.200s", status, resp)
		return
	}
	var res struct {
		Created int                        `json:"created"`
		Results []server.BatchIngestResult `json:"results"`
	}
	if err := json.Unmarshal(resp, &res); err != nil {
		t.fail("ingest: decode: %v", err)
		return
	}
	if res.Created != batchModels || len(res.Results) != batchModels {
		t.fail("ingest: created %d of %d", res.Created, batchModels)
		return
	}
	for _, r := range res.Results {
		if r.Record == nil {
			t.fail("ingest: result without record: %s", r.Error)
			return
		}
		t.acked = append(t.acked, r.Record.ID)
	}
	t.models += batchModels
	t.lat[kindIngest] = append(t.lat[kindIngest], float64(lat)/float64(time.Millisecond))
}

// bodyQueue hands out pre-encoded ingest bodies in order. Running out is an
// error: a writer that sat idle would quietly turn the mixed workload into a
// read-only one.
type bodyQueue struct {
	bodies [][]byte
	next   int
}

var errBodiesExhausted = errors.New("ingest writer ran out of pre-encoded bodies; raise the body budget")

func (q *bodyQueue) pop() ([]byte, error) {
	if q.next >= len(q.bodies) {
		return nil, errBodiesExhausted
	}
	b := q.bodies[q.next]
	q.bodies[q.next] = nil
	q.next++
	return b, nil
}

// phase runs the closed loop for d: clients 0 and 1 read from the shared
// stream position, except that on a writer workload client 0 posts ingest
// batches back to back. It returns the merged tally and the elapsed time.
func phase(w *workload, clients []*client, stream []request, pos *atomic.Int64,
	q *bodyQueue, d time.Duration) (*tally, float64, error) {
	deadline := time.Now().Add(d)
	start := time.Now()
	tallies := make([]*tally, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		tallies[i] = newTally()
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			t := tallies[i]
			for n := 0; time.Now().Before(deadline); n++ {
				if w.writer && i == 0 {
					body, err := q.pop()
					if err != nil {
						errs[i] = err
						return
					}
					c.ingest(body, t)
					continue
				}
				r := stream[int(pos.Add(1)-1)%len(stream)]
				c.read(r, t, n%sampleEvery == 0)
			}
		}(i, c)
	}
	wg.Wait()
	elapsed := since(start)
	out := newTally()
	for _, t := range tallies {
		out.merge(t)
	}
	return out, elapsed, errors.Join(errs...)
}
