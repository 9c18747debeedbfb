package lake

import (
	"context"
	"fmt"
	"strings"

	"modellake/internal/mlql"
	"modellake/internal/search"
)

// catalog adapts a Lake to the mlql.Catalog interface. The adapter resolves
// each MLQL construct to the lake capability that answers it: field
// predicates to registry/card metadata, TRAINED ON to declared history plus
// dataset-version closure, OUTPERFORMS to the benchmark runner, and RANK BY
// to the corresponding searcher. ctx is the request context of the query
// the adapter serves; the rankers pass it to the searches they run.
type catalog struct {
	l   *Lake
	ctx context.Context
}

// catalogSnapshot is the lake's decoded catalog: one MLQL row per registry
// record plus each record's declared training dataset, in registry (ID)
// order. Building it decodes every model/ record and card/ JSON, so the
// lake keeps the last one and rebuilds it only when the metadata store's
// mutation generation has moved. Rows and their field maps are shared by
// every query that reads the snapshot and must not be modified.
type catalogSnapshot struct {
	gen      uint64
	rows     []mlql.Row
	declared []string // rows[i]'s DeclaredData
}

// snapshotCatalog returns a catalog snapshot no older than the last write
// that landed before the call. The generation is read before the rebuild,
// so a write racing the decode leaves a snapshot tagged older than its
// contents and only forces the next query to rebuild again.
func (l *Lake) snapshotCatalog() (*catalogSnapshot, error) {
	gen := l.kv.Gen()
	if snap := l.catalogSnap.Load(); snap != nil && snap.gen == gen {
		return snap, nil
	}
	snap, err := l.buildCatalogSnapshot(gen)
	if err != nil {
		return nil, err
	}
	l.catalogSnap.Store(snap)
	return snap, nil
}

// buildCatalogSnapshot decodes every registry record and card into rows.
func (l *Lake) buildCatalogSnapshot(gen uint64) (*catalogSnapshot, error) {
	recs, err := l.Records()
	if err != nil {
		return nil, err
	}
	snap := &catalogSnapshot{
		gen:      gen,
		rows:     make([]mlql.Row, 0, len(recs)),
		declared: make([]string, 0, len(recs)),
	}
	for _, rec := range recs {
		fields := map[string]string{
			"name": rec.Name,
			"arch": rec.Arch,
			"tag":  strings.Join(rec.Tags, " "),
		}
		if len(rec.DeclaredBases) > 0 {
			fields["base"] = rec.DeclaredBases[0]
		}
		if crd, err := l.Card(rec.ID); err == nil {
			fields["domain"] = crd.Domain
			fields["task"] = crd.Task
			if crd.Transform != "" {
				fields["transform"] = crd.Transform
			}
			if fields["base"] == "" {
				fields["base"] = crd.BaseModel
			}
		}
		if fields["domain"] == "" {
			fields["domain"] = rec.Domain
		}
		snap.rows = append(snap.rows, mlql.Row{ID: rec.ID, Fields: fields})
		snap.declared = append(snap.declared, rec.DeclaredData)
	}
	return snap, nil
}

// Candidates implements mlql.Catalog. The rows are the current catalog
// snapshot's, shared with concurrent queries.
func (c *catalog) Candidates() ([]mlql.Row, error) {
	snap, err := c.l.snapshotCatalog()
	if err != nil {
		return nil, err
	}
	return snap.rows, nil
}

// TrainedOn implements mlql.Catalog. Version closure follows the registered
// datasets' parent links in both directions, so "versions of legal/v1"
// covers legal/v1 itself, its derivations, and (transitively) their
// derivations.
func (c *catalog) TrainedOn(dataset string, includeVersions bool) (map[string]bool, error) {
	family := map[string]bool{dataset: true}
	if includeVersions {
		lineage, err := c.l.DatasetLineage()
		if err != nil {
			return nil, err
		}
		// Repeated closure over parent links (small dataset counts).
		changed := true
		for changed {
			changed = false
			for id, parent := range lineage {
				if parent == "" {
					continue
				}
				if family[parent] && !family[id] {
					family[id] = true
					changed = true
				}
				if family[id] && !family[parent] {
					family[parent] = true
					changed = true
				}
			}
		}
	}
	snap, err := c.l.snapshotCatalog()
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for i, ds := range snap.declared {
		if ds != "" && family[ds] {
			out[snap.rows[i].ID] = true
		}
	}
	return out, nil
}

// Outperforms implements mlql.Catalog.
func (c *catalog) Outperforms(modelRef, bench string) (map[string]bool, error) {
	id, err := c.resolveRef(modelRef)
	if err != nil {
		return nil, err
	}
	baseline, err := c.l.Score(id, bench)
	if err != nil {
		return nil, err
	}
	return c.l.ScoresAbove(bench, baseline, id)
}

// resolveRef maps an MLQL model reference to an ID: an ID as is, else a
// name resolved at version "1".
func (c *catalog) resolveRef(modelRef string) (string, error) {
	if _, err := c.l.Record(modelRef); err == nil {
		return modelRef, nil
	}
	id, err := c.l.Resolve(modelRef, "")
	if err != nil {
		return "", fmt.Errorf("unknown model %q", modelRef)
	}
	return id, nil
}

// rankK is the k that makes a ranker cover the whole lake: the snapshot's
// model count, which is the registry's count as of the snapshot.
func (c *catalog) rankK() (int, error) {
	snap, err := c.l.snapshotCatalog()
	if err != nil {
		return 0, err
	}
	return len(snap.rows), nil
}

// SimilarityRank implements mlql.Catalog.
func (c *catalog) SimilarityRank(modelRef, space string) ([]mlql.Hit, error) {
	l := c.l
	id, err := c.resolveRef(modelRef)
	if err != nil {
		return nil, err
	}
	k, err := c.rankK()
	if err != nil {
		return nil, err
	}
	var hits []search.Hit
	if space == "cards" {
		crd, cerr := l.Card(id)
		if cerr != nil {
			return nil, fmt.Errorf("model %q has no card to rank by", id)
		}
		hits, err = l.SearchKeywordContext(c.ctx, crd.Text(), k)
	} else {
		hits, err = l.SearchByModelContext(c.ctx, id, space, k)
	}
	if err != nil {
		return nil, err
	}
	return toMLQLHits(hits), nil
}

// TextRank implements mlql.Catalog.
func (c *catalog) TextRank(text string) ([]mlql.Hit, error) {
	k, err := c.rankK()
	if err != nil {
		return nil, err
	}
	hits, err := c.l.SearchKeywordContext(c.ctx, text, k)
	if err != nil {
		return nil, err
	}
	return toMLQLHits(hits), nil
}

// BenchmarkRank implements mlql.Catalog.
func (c *catalog) BenchmarkRank(bench string) ([]mlql.Hit, error) {
	snap, err := c.l.snapshotCatalog()
	if err != nil {
		return nil, err
	}
	var out []mlql.Hit
	for _, row := range snap.rows {
		s, err := c.l.Score(row.ID, bench)
		if err != nil {
			continue
		}
		out = append(out, mlql.Hit{ID: row.ID, Score: s})
	}
	// Sort best-first, ties by ID.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			if out[j].Score > out[j-1].Score ||
				(out[j].Score == out[j-1].Score && out[j].ID < out[j-1].ID) {
				out[j], out[j-1] = out[j-1], out[j]
			} else {
				break
			}
		}
	}
	return out, nil
}

func toMLQLHits(hits []search.Hit) []mlql.Hit {
	out := make([]mlql.Hit, len(hits))
	for i, h := range hits {
		out[i] = mlql.Hit{ID: h.ID, Score: h.Score}
	}
	return out
}

// Compile-time conformance.
var _ mlql.Catalog = (*catalog)(nil)
