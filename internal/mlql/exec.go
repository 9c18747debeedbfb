package mlql

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// Row is a candidate model exposed to the executor: its ID and the metadata
// fields field predicates can test. Field keys are lowercase field names;
// "tag" may hold multiple space-separated tags.
type Row struct {
	ID     string
	Fields map[string]string
}

// Hit is one ranked result.
type Hit struct {
	ID    string
	Score float64
}

// Catalog is the executor's window onto the lake. The lake facade implements
// it; tests use fakes.
type Catalog interface {
	// Candidates returns every queryable model. The rows, and their Fields
	// maps, may be shared with other queries and must be treated as
	// read-only.
	Candidates() ([]Row, error)
	// TrainedOn returns the IDs of models trained on the dataset (or any
	// version of it when includeVersions is set), as established by the
	// lake's evidence — declared history or content-based inference.
	TrainedOn(dataset string, includeVersions bool) (map[string]bool, error)
	// Outperforms returns the IDs of models scoring strictly higher than
	// the named model on the benchmark.
	Outperforms(model, bench string) (map[string]bool, error)
	// SimilarityRank ranks all models by similarity to the query model in
	// the named embedding space ("", "weights", "behavior" or "cards").
	SimilarityRank(model, space string) ([]Hit, error)
	// TextRank ranks all models by relevance to free text.
	TextRank(text string) ([]Hit, error)
	// BenchmarkRank ranks all models by benchmark score.
	BenchmarkRank(bench string) ([]Hit, error)
}

// Result is the executor's output.
type Result struct {
	Query *Query
	Hits  []Hit
}

// Execute runs a parsed query against a catalog.
func Execute(q *Query, c Catalog) (*Result, error) {
	return ExecuteContext(context.Background(), q, c)
}

// ExecuteContext runs a parsed query, abandoning it between stages if ctx
// is canceled — each predicate and the ranker can touch every model in the
// lake, so a timed-out request must not keep paying for them.
func ExecuteContext(ctx context.Context, q *Query, c Catalog) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rows, err := c.Candidates()
	if err != nil {
		return nil, fmt.Errorf("mlql: candidates: %w", err)
	}
	// Filter.
	keep := make(map[string]bool, len(rows))
	for _, r := range rows {
		keep[r.ID] = true
	}
	for _, pred := range q.Preds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		switch pred.Kind {
		case PredField:
			for _, r := range rows {
				if !keep[r.ID] {
					continue
				}
				if !fieldMatches(r, pred) {
					delete(keep, r.ID)
				}
			}
		case PredTrainedOn:
			set, err := c.TrainedOn(pred.Dataset, pred.Versions)
			if err != nil {
				return nil, fmt.Errorf("mlql: TRAINED ON: %w", err)
			}
			intersect(keep, set)
		case PredOutperforms:
			set, err := c.Outperforms(pred.Model, pred.Bench)
			if err != nil {
				return nil, fmt.Errorf("mlql: OUTPERFORMS: %w", err)
			}
			intersect(keep, set)
		}
	}

	// Rank.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var hits []Hit
	if q.Rank == nil {
		for _, r := range rows {
			if keep[r.ID] {
				hits = append(hits, Hit{ID: r.ID})
			}
		}
		sort.Slice(hits, func(i, j int) bool { return hits[i].ID < hits[j].ID })
	} else {
		var ranking []Hit
		var err error
		switch q.Rank.Kind {
		case RankSimilarity:
			ranking, err = c.SimilarityRank(q.Rank.Model, q.Rank.Space)
		case RankText:
			ranking, err = c.TextRank(q.Rank.Text)
		case RankBenchmark:
			ranking, err = c.BenchmarkRank(q.Rank.Bench)
		}
		if err != nil {
			return nil, fmt.Errorf("mlql: RANK BY: %w", err)
		}
		for _, h := range ranking {
			if keep[h.ID] {
				hits = append(hits, h)
				delete(keep, h.ID) // rankers must not duplicate
			}
		}
		// Models the ranker could not score come last, by ID.
		var rest []Hit
		for _, r := range rows {
			if keep[r.ID] {
				rest = append(rest, Hit{ID: r.ID, Score: 0})
				delete(keep, r.ID)
			}
		}
		sort.Slice(rest, func(i, j int) bool { return rest[i].ID < rest[j].ID })
		hits = append(hits, rest...)
	}
	if q.Limit > 0 && len(hits) > q.Limit {
		hits = hits[:q.Limit]
	}
	return &Result{Query: q, Hits: hits}, nil
}

func fieldMatches(r Row, p Predicate) bool {
	val := r.Fields[p.Field]
	switch p.Op {
	case "=":
		if p.Field == "tag" {
			for _, tag := range strings.Fields(val) {
				if strings.EqualFold(tag, p.Value) {
					return true
				}
			}
			return false
		}
		return strings.EqualFold(val, p.Value)
	case "like":
		return strings.Contains(strings.ToLower(val), strings.ToLower(p.Value))
	}
	return false
}

func intersect(keep map[string]bool, set map[string]bool) {
	for id := range keep {
		if !set[id] {
			delete(keep, id)
		}
	}
}

// Run parses and executes in one call.
func Run(query string, c Catalog) (*Result, error) {
	return RunContext(context.Background(), query, c)
}

// RunContext parses and executes in one call, honoring ctx.
func RunContext(ctx context.Context, query string, c Catalog) (*Result, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return ExecuteContext(ctx, q, c)
}

// Explain renders the evaluation plan for a query: which lake capability
// answers each predicate and how the final ranking is produced. It performs
// no lake work — the plan is derived from the AST alone.
func Explain(q *Query) string {
	var sb strings.Builder
	sb.WriteString("plan:\n")
	sb.WriteString("  scan: registry records via the catalog snapshot (metadata + cards, decoded once and rebuilt after writes)\n")
	for _, p := range q.Preds {
		switch p.Kind {
		case PredField:
			fmt.Fprintf(&sb, "  filter: field %s %s %q (in-memory over catalog rows)\n",
				strings.ToUpper(p.Field), strings.ToUpper(p.Op), p.Value)
		case PredTrainedOn:
			if p.Versions {
				fmt.Fprintf(&sb, "  filter: TRAINED ON VERSIONS OF %q (declared history ∩ persisted dataset-lineage closure)\n", p.Dataset)
			} else {
				fmt.Fprintf(&sb, "  filter: TRAINED ON %q (declared history exact match)\n", p.Dataset)
			}
		case PredOutperforms:
			fmt.Fprintf(&sb, "  filter: OUTPERFORMS %q ON %q (benchmark runner, cached scores)\n", p.Model, p.Bench)
		}
	}
	switch {
	case q.Rank == nil:
		sb.WriteString("  order: by model id (no ranker)\n")
	case q.Rank.Kind == RankSimilarity:
		space := q.Rank.Space
		if space == "" {
			space = "behavior"
		}
		fmt.Fprintf(&sb, "  order: ANN similarity to %q in the %s embedding space\n", q.Rank.Model, space)
	case q.Rank.Kind == RankText:
		fmt.Fprintf(&sb, "  order: BM25 relevance to %q over the card inverted index\n", q.Rank.Text)
	case q.Rank.Kind == RankBenchmark:
		fmt.Fprintf(&sb, "  order: score on benchmark %q (runner, cached)\n", q.Rank.Bench)
	}
	if q.Limit > 0 {
		fmt.Fprintf(&sb, "  limit: %d\n", q.Limit)
	}
	return sb.String()
}
