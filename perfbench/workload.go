package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"modellake/internal/cluster"
	"modellake/internal/data"
	"modellake/internal/lake"
	"modellake/internal/lakegen"
	"modellake/internal/model"
	"modellake/internal/nn"
	"modellake/internal/registry"
	"modellake/internal/server"
	"modellake/internal/xrand"
)

// Request kinds. Every read the clients send is one of the first three;
// the ingest-read writer sends the fourth.
const (
	kindRelated = "related"
	kindSearch  = "search"
	kindQuery   = "query"
	kindIngest  = "ingest"
)

// workload fixes everything about one benchmark workload except the seed:
// the lake's shape and tiers, its population size, and the request mix.
type workload struct {
	name    string
	models  int         // base population streamed in at set-up
	cfg     lake.Config // per-node lake config; Dir is filled in per run
	cluster bool        // serve a 2-shard, 1-replica cluster instead of one lake

	// Read mix as percentages of the read stream.
	relatedBehavior, relatedWeights, search, query int
	writer                                         bool // client 1 posts batches instead of reading

	warmup    int // serial requests replayed from the head of the stream before timing
	countPass int // serial requests in the deterministic count pass
}

// sampleEvery is the stride of checked answers: every sampleEvery-th read
// of each measured client keeps its answer for the post-run checks.
const sampleEvery = 8

// batchModels is the number of fresh models in one ingest request.
const batchModels = 8

// relatedK and searchK are the k every related and keyword request asks for.
const (
	relatedK = 10
	searchK  = 10
)

// lakeSeed is the lake's internal seed (probe inputs, ANN levels, PQ
// training). It is part of the program's configuration, not of the
// workload's inputs, so it stays fixed while --seed varies the inputs.
const lakeSeed = 1

// atlasRescoreFactor is the atlas lake's PQ shortlist over-fetch. The index
// default of 8 is sized for the int8 tier; PQ shortlists need more slack
// (DESIGN.md §14). It is sized the way E16 sizes its PQ arm: over every
// model in both spaces of the 2 000-model population for seeds 1–30, 401
// and 812037908, factors 16 and 24 still missed exact top-10 answers and 32
// was the lowest with none, so atlas runs at twice that. The shortlist (640
// rows) stays well short of the whole index, so the ADC scan still ranks
// every row and the pread rescore still reads only the shortlist.
const atlasRescoreFactor = 64

// workloads returns the benchmark's workloads at the given population
// scale; scale 1 is the size the benchmark runs, tests use a tiny scale.
func workloads(scale float64) map[string]*workload {
	n := func(base int) int { return max(40, int(math.Round(float64(base)*scale))) }
	browse := &workload{
		name: "browse", models: n(2000),
		cfg:             lake.Config{Seed: lakeSeed},
		relatedBehavior: 50, relatedWeights: 20, search: 30,
		warmup: n(1000), countPass: n(300),
	}
	atlas := *browse
	atlas.name = "atlas"
	atlas.cfg = lake.Config{Seed: lakeSeed, PQSubspaces: 8, DiskResidentVectors: true, DiskResidentPostings: true,
		RescoreFactor: atlasRescoreFactor}
	return map[string]*workload{
		"browse": browse,
		"atlas":  &atlas,
		"declarative": {
			name: "declarative", models: n(600),
			cfg:   lake.Config{Seed: lakeSeed},
			query: 100,
			// Each query scans the whole catalog, so fewer warm-up and
			// count-pass requests cover the same ground.
			warmup: n(60), countPass: n(40),
		},
		"ingest-read": {
			name: "ingest-read", models: n(2000),
			cfg:             lake.Config{Seed: lakeSeed, Sync: true},
			cluster:         true,
			relatedBehavior: 50, relatedWeights: 20, search: 30,
			writer: true,
			warmup: n(1000), countPass: n(200),
		},
	}
}

// populationSpec shapes the lakegen population: tiny models trained for one
// epoch in families of five, so thousands of models stream in seconds while
// every model still carries real weights, a card and a lineage. The edit
// transform is left out because on barely trained models its association
// direction can degenerate and abort generation.
func populationSpec(seed uint64, models int) lakegen.Spec {
	const perFamily = 5
	return lakegen.Spec{
		Seed: seed, NumBases: (models + perFamily - 1) / perFamily, ChildrenPerBase: perFamily - 1,
		MaxDepth: 3, Dim: 8, Classes: 3, Hidden: 8, TrainN: 32, Noise: 0.4,
		BaseEpochs: 1, FTEpochs: 1, CardDropProb: 0.2, AnonymousNames: true,
		TransformMix: map[string]float64{
			model.TransformFinetune: 0.55,
			model.TransformLoRA:     0.25,
			model.TransformStitch:   0.2,
		},
	}
}

// freshSeed derives the write stream's generator seed, disjoint from the
// base population's.
func freshSeed(seed uint64) uint64 { return seed ^ 0x9e3779b97f4a7c15 }

// deployment is an opened lake or cluster: the LakeAPI the server fronts,
// plus the concrete handles the checks and per-layer metrics need.
type deployment struct {
	api server.LakeAPI
	lk  *lake.Lake       // nil for a cluster
	cl  *cluster.Cluster // nil for a single node
}

func (d *deployment) Close() error {
	if d.cl != nil {
		return d.cl.Close()
	}
	return d.lk.Close()
}

// ingestAll bulk-loads items through the deployment's IngestAll.
func (d *deployment) ingestAll(items []lake.IngestItem) ([]*registry.Record, []error) {
	if d.cl != nil {
		return d.cl.IngestAll(items, 0)
	}
	return d.lk.IngestAll(items, 0)
}

// openDeployment opens the workload's lake (or cluster) on dir with cfg.
func openDeployment(w *workload, cfg lake.Config, dir string) (*deployment, error) {
	if w.cluster {
		cfg.Dir = ""
		cl, err := cluster.Open(cluster.Config{Dir: dir, Shards: 2, Replicas: 1, Lake: cfg})
		if err != nil {
			return nil, err
		}
		return &deployment{api: cl, cl: cl}, nil
	}
	cfg.Dir = dir
	lk, err := lake.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &deployment{api: lk, lk: lk}, nil
}

// baseModel is what the request generator and the checks know about one
// model of the base population.
type baseModel struct {
	ID      string
	Dataset string // declared training dataset ("" when undocumented)
}

// setUp stream-generates the workload's population into a fresh lake under
// dir, bulk-loading it through IngestAll in chunks, and closes the lake. It
// returns the base models in ingest order.
func setUp(w *workload, seed uint64, dir string) ([]baseModel, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	d, err := openDeployment(w, w.cfg, dir)
	if err != nil {
		return nil, fmt.Errorf("set-up open: %w", err)
	}
	const chunk = 512
	var batch []lake.IngestItem
	var out []baseModel
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		recs, errs := d.ingestAll(batch)
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("set-up ingest: %w", err)
			}
			out = append(out, baseModel{ID: recs[i].ID, Dataset: recs[i].DeclaredData})
		}
		batch = batch[:0]
		return nil
	}
	err = lakegen.Stream(populationSpec(seed, w.models), func(m *lakegen.Member) error {
		batch = append(batch, lake.IngestItem{
			Model: m.Model, Card: m.Card,
			Opts: registry.RegisterOptions{Name: m.Truth.Name, Version: "1"},
		})
		if len(batch) >= chunk {
			return flush()
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return out, err
}

// request is one HTTP request of a stream, with the parameters the checks
// need to replay it against the lake directly.
type request struct {
	Kind  string `json:"kind"`
	Path  string `json:"path"` // URL path and query string
	ID    string `json:"id,omitempty"`
	Space string `json:"space,omitempty"`
	Shape string `json:"shape,omitempty"` // MLQL query shape: similarity, text or trained_on
	Q     string `json:"q,omitempty"`
	K     int    `json:"k,omitempty"`
	// Pred names the field predicate a query's hits must satisfy.
	PredField string `json:"pred_field,omitempty"`
	PredValue string `json:"pred_value,omitempty"`
}

// zipf draws ranks in [0, n) with P(r) ∝ 1/(r+1)^s by inverse-CDF lookup.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	total := 0.0
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1), s)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(rng *xrand.RNG) int {
	return min(sort.SearchFloat64s(z.cdf, rng.Float64()), len(z.cdf)-1)
}

// zipfS is the popularity skew of model IDs and keyword queries.
const zipfS = 1.1

// streamLen is the read stream's length; clients wrap around at the end.
const streamLen = 1 << 16

// keywordPool builds the distinct keyword queries the search requests draw
// from: same-domain triples, cross-domain pairs, a common word plus a
// domain keyword, and single keywords.
func keywordPool(rng *xrand.RNG, n int) []string {
	domains := data.StandardTextDomains()
	filler := []string{"the", "model", "data", "system", "result", "report"}
	out := make([]string, n)
	for i := range out {
		d := domains[rng.Intn(len(domains))]
		switch i % 4 {
		case 0:
			out[i] = strings.Join([]string{xrand.Pick(rng, d.Keywords), xrand.Pick(rng, d.Keywords), xrand.Pick(rng, d.Keywords)}, " ")
		case 1:
			d2 := domains[rng.Intn(len(domains))]
			out[i] = xrand.Pick(rng, d.Keywords) + " " + xrand.Pick(rng, d2.Keywords)
		case 2:
			out[i] = xrand.Pick(rng, filler) + " " + xrand.Pick(rng, d.Keywords) + " " + xrand.Pick(rng, filler)
		default:
			out[i] = xrand.Pick(rng, d.Keywords)
		}
	}
	return out
}

// readStream generates the workload's read requests from the seed and the
// base models. The same seed and population give a byte-identical stream.
func readStream(w *workload, seed uint64, base []baseModel, n int) []request {
	rng := xrand.New(seed).Child("requests/" + w.name)
	// Popularity ranks map to models through a seeded permutation, so the
	// hottest models are spread over the catalog rather than its head.
	perm := rng.Perm(len(base))
	models := newZipf(len(base), zipfS)
	pickModel := func() string { return base[perm[models.draw(rng)]].ID }
	kw := keywordPool(rng.Child("keywords"), 256)
	kwZipf := newZipf(len(kw), zipfS)
	var datasets []string
	for _, b := range base {
		if b.Dataset != "" {
			datasets = append(datasets, b.Dataset)
		}
	}
	sort.Strings(datasets)
	domains := data.StandardTextDomains()
	transforms := []string{model.TransformPretrain, model.TransformFinetune, model.TransformLoRA, model.TransformStitch}

	out := make([]request, n)
	for i := range out {
		p := rng.Intn(100)
		switch {
		case p < w.relatedBehavior+w.relatedWeights:
			space := "behavior"
			if p >= w.relatedBehavior {
				space = "weights"
			}
			id := pickModel()
			out[i] = request{Kind: kindRelated, ID: id, Space: space, K: relatedK,
				Path: fmt.Sprintf("/v1/related?id=%s&space=%s&k=%d", id, space, relatedK)}
		case p < w.relatedBehavior+w.relatedWeights+w.search:
			q := kw[kwZipf.draw(rng)]
			out[i] = request{Kind: kindSearch, Q: q, K: searchK,
				Path: "/v1/search?" + url.Values{"q": {q}, "k": {fmt.Sprint(searchK)}}.Encode()}
		default:
			out[i] = queryRequest(rng, pickModel, kw, kwZipf, datasets, domains, transforms)
		}
	}
	return out
}

// queryRequest draws one MLQL query: a field predicate ranked by behaviour
// or weight similarity, a text ranking, or a TRAINED ON filter, each with
// LIMIT 5-10.
func queryRequest(rng *xrand.RNG, pickModel func() string, kw []string, kwZipf *zipf,
	datasets []string, domains []data.TextDomain, transforms []string) request {
	limit := 5 + rng.Intn(6)
	r := request{Kind: kindQuery}
	switch shape := rng.Intn(3); {
	case shape == 0 || len(datasets) == 0:
		var field, value string
		switch rng.Intn(3) {
		case 0:
			field, value = "domain", xrand.Pick(rng, domains).Name
		case 1:
			field, value = "task", "classification"
		default:
			field, value = "transform", xrand.Pick(rng, transforms)
		}
		space := "BEHAVIOR"
		if rng.Intn(2) == 1 {
			space = "WEIGHTS"
		}
		r.Q = fmt.Sprintf("FIND MODELS WHERE %s = '%s' RANK BY SIMILARITY TO MODEL '%s' USING %s LIMIT %d",
			strings.ToUpper(field), value, pickModel(), space, limit)
		r.PredField, r.PredValue = field, value
		r.Shape = "similarity"
	case shape == 1:
		r.Q = fmt.Sprintf("FIND MODELS RANK BY TEXT '%s' LIMIT %d", kw[kwZipf.draw(rng)], limit)
		r.Shape = "text"
	default:
		ds := datasets[rng.Intn(len(datasets))]
		r.Q = fmt.Sprintf("FIND MODELS WHERE TRAINED ON DATASET '%s' LIMIT %d", ds, limit)
		r.PredField, r.PredValue = "dataset", ds
		r.Shape = "trained_on"
	}
	r.Path = "/v1/query?" + url.Values{"q": {r.Q}}.Encode()
	return r
}

// ingestBodies pre-encodes n POST /v1/models/batch bodies of batchModels
// fresh models each, generated from a seed disjoint from the base
// population's. Names carry a prefix so they never collide with base names.
func ingestBodies(seed uint64, n int) ([][]byte, error) {
	if n == 0 {
		return nil, nil
	}
	bodies := make([][]byte, 0, n)
	var batch []server.IngestRequest
	err := lakegen.Stream(populationSpec(freshSeed(seed), n*batchModels), func(m *lakegen.Member) error {
		if len(bodies) == n {
			return nil
		}
		raw, err := nn.EncodeMLP(m.Model.Net)
		if err != nil {
			return err
		}
		batch = append(batch, server.IngestRequest{
			Name: "fresh-" + m.Truth.Name, Version: "1", Card: m.Card,
			WeightsB64: base64.StdEncoding.EncodeToString(raw),
		})
		if len(batch) == batchModels {
			b, err := json.Marshal(server.BatchIngestRequest{Models: batch})
			if err != nil {
				return err
			}
			bodies = append(bodies, b)
			batch = batch[:0]
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("encode ingest bodies: %w", err)
	}
	if len(bodies) < n {
		return nil, fmt.Errorf("encode ingest bodies: generated %d of %d", len(bodies), n)
	}
	return bodies, nil
}

// dirBytes sums the sizes of the regular files under dir whose base name
// matches keep (every file when keep is nil).
func dirBytes(dir string, keep func(name string) bool) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() && (keep == nil || keep(e.Name())) {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
