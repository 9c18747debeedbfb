package lake

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"modellake/internal/card"
	"modellake/internal/mlql"
	"modellake/internal/registry"
)

// referenceCatalog decodes every registry record and card into a row, plus
// each record's declared training dataset, on every call. It is the
// reference the cached catalog snapshot must equal exactly.
func referenceCatalog(t *testing.T, l *Lake) ([]mlql.Row, []string) {
	t.Helper()
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]mlql.Row, 0, len(recs))
	declared := make([]string, 0, len(recs))
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
		rows = append(rows, mlql.Row{ID: rec.ID, Fields: fields})
		declared = append(declared, rec.DeclaredData)
	}
	return rows, declared
}

func assertSnapshotMatchesReference(t *testing.T, l *Lake) {
	t.Helper()
	snap, err := l.snapshotCatalog()
	if err != nil {
		t.Fatal(err)
	}
	rows, declared := referenceCatalog(t, l)
	if !reflect.DeepEqual(snap.rows, rows) {
		t.Fatalf("snapshot rows differ from the decode loop:\n got %v\nwant %v", snap.rows, rows)
	}
	if !reflect.DeepEqual(snap.declared, declared) {
		t.Fatalf("snapshot declared data differs from the decode loop:\n got %v\nwant %v", snap.declared, declared)
	}
}

func queryIDs(t *testing.T, l *Lake, q string) []string {
	t.Helper()
	res, err := l.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	ids := make([]string, len(res.Hits))
	for i, h := range res.Hits {
		ids[i] = h.ID
	}
	return ids
}

// TestCatalogSnapshotMatchesDecodeLoop pins the snapshot's rows and declared
// data to the decode loop it replaced, on a generated population and again
// after card edits that add, change and clear fields.
func TestCatalogSnapshotMatchesDecodeLoop(t *testing.T) {
	l, err := Open(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pop := population(t, 31)
	ids := fill(t, l, pop)
	assertSnapshotMatchesReference(t, l)

	if err := l.PutCard(ids[0], &card.Card{Name: "bare"}); err != nil {
		t.Fatal(err)
	}
	if err := l.PutCard(ids[1], &card.Card{Name: "edited", Domain: "maritime", Task: "ranking",
		Transform: "distill", BaseModel: ids[0]}); err != nil {
		t.Fatal(err)
	}
	assertSnapshotMatchesReference(t, l)
}

// TestCatalogSnapshotReusedUntilWrite checks the snapshot is decoded once
// per metadata generation: read-only queries share it, a write replaces it.
func TestCatalogSnapshotReusedUntilWrite(t *testing.T) {
	l, err := Open(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pop := population(t, 32)
	ids := fill(t, l, pop)

	queryIDs(t, l, "FIND MODELS WHERE DOMAIN = 'legal'")
	first := l.catalogSnap.Load()
	queryIDs(t, l, "FIND MODELS WHERE TASK = 'classification'")
	queryIDs(t, l, fmt.Sprintf("FIND MODELS RANK BY SIMILARITY TO MODEL '%s' LIMIT 3", ids[0]))
	if l.catalogSnap.Load() != first {
		t.Fatal("read-only queries rebuilt the catalog snapshot")
	}
	if err := l.PutCard(ids[2], &card.Card{Name: "x", Domain: "legal"}); err != nil {
		t.Fatal(err)
	}
	queryIDs(t, l, "FIND MODELS WHERE DOMAIN = 'legal'")
	if l.catalogSnap.Load() == first {
		t.Fatal("a write did not replace the catalog snapshot")
	}
}

// TestCatalogSnapshotFreshAfterWrites: after every kind of write that
// changes the catalog, the very next MLQL query sees it.
func TestCatalogSnapshotFreshAfterWrites(t *testing.T) {
	l, err := Open(Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pop := population(t, 33)
	ids := fill(t, l, pop)
	m0 := pop.Members[0]

	// Build the snapshot before each write so freshness is not an accident
	// of a first build.
	byName := func(name string) string { return fmt.Sprintf("FIND MODELS WHERE NAME = '%s'", name) }

	queryIDs(t, l, byName("fresh-one"))
	clone := *m0.Model
	clone.ID = ""
	rec, err := l.Ingest(&clone, m0.Card, registry.RegisterOptions{Name: "fresh-one", Version: "1"})
	if err != nil {
		t.Fatal(err)
	}
	if got := queryIDs(t, l, byName("fresh-one")); !reflect.DeepEqual(got, []string{rec.ID}) {
		t.Fatalf("after Ingest: got %v, want [%s]", got, rec.ID)
	}

	var items []IngestItem
	for i, name := range []string{"fresh-two", "fresh-three"} {
		c := *pop.Members[i+1].Model
		c.ID = ""
		items = append(items, IngestItem{Model: &c, Card: pop.Members[i+1].Card,
			Opts: registry.RegisterOptions{Name: name, Version: "1"}})
	}
	recs := fillBatch(t, l, items, 2)
	for i, name := range []string{"fresh-two", "fresh-three"} {
		if got := queryIDs(t, l, byName(name)); !reflect.DeepEqual(got, []string{recs[i].ID}) {
			t.Fatalf("after IngestAll: %s got %v, want [%s]", name, got, recs[i].ID)
		}
	}

	const domain = "DOMAIN = 'shipping-law'"
	if got := queryIDs(t, l, "FIND MODELS WHERE "+domain); len(got) != 0 {
		t.Fatalf("domain present before PutCard: %v", got)
	}
	if err := l.PutCard(ids[3], &card.Card{Name: "moved", Domain: "shipping-law"}); err != nil {
		t.Fatal(err)
	}
	if got := queryIDs(t, l, "FIND MODELS WHERE "+domain); !reflect.DeepEqual(got, []string{ids[3]}) {
		t.Fatalf("after PutCard: got %v, want [%s]", got, ids[3])
	}

	// The whole-lake ranking covers the new models too.
	want := l.Count()
	if got := queryIDs(t, l, fmt.Sprintf("FIND MODELS RANK BY SIMILARITY TO MODEL '%s'", ids[0])); len(got) != want {
		t.Fatalf("ranking returned %d of %d models", len(got), want)
	}
	assertSnapshotMatchesReference(t, l)
}

// TestCatalogSnapshotFreshOnReplica: a follower's next MLQL query reflects
// every page it applied, though the follower never commits a write itself.
func TestCatalogSnapshotFreshOnReplica(t *testing.T) {
	dir := t.TempDir()
	leaderDir := filepath.Join(dir, "leader")
	leader, err := Open(Config{Dir: leaderDir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	replica, err := Open(Config{Dir: filepath.Join(dir, "replica"),
		BlobDir: filepath.Join(leaderDir, "blobs"), Seed: 1, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	pop := population(t, 34)
	ids := fill(t, leader, pop)
	shipAll(t, leader, replica)
	const q = "FIND MODELS WHERE DOMAIN = 'shipping-law'"
	if got := queryIDs(t, replica, q); len(got) != 0 {
		t.Fatalf("replica matched before the write: %v", got)
	}

	m0 := pop.Members[0]
	clone := *m0.Model
	clone.ID = ""
	rec, err := leader.Ingest(&clone, &card.Card{Name: "fresh", Domain: "shipping-law"},
		registry.RegisterOptions{Name: "fresh-replica", Version: "1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.PutCard(ids[0], &card.Card{Name: "moved", Domain: "shipping-law"}); err != nil {
		t.Fatal(err)
	}
	shipAll(t, leader, replica)
	want := []string{ids[0], rec.ID}
	if ids[0] > rec.ID {
		want = []string{rec.ID, ids[0]}
	}
	if got := queryIDs(t, replica, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("replica after ApplyWAL: got %v, want %v", got, want)
	}
	assertSnapshotMatchesReference(t, replica)
}

// TestCatalogQueriesRaceIngest runs MLQL queries concurrently with ingests
// (meaningful under -race) and then checks the catalog caught up.
func TestCatalogQueriesRaceIngest(t *testing.T) {
	l, err := Open(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pop := population(t, 35)
	ids := fill(t, l, pop)

	ctx := context.Background()
	var stop atomic.Bool
	var wg sync.WaitGroup
	queries := []string{
		"FIND MODELS WHERE DOMAIN = 'legal' LIMIT 5",
		fmt.Sprintf("FIND MODELS RANK BY SIMILARITY TO MODEL '%s' USING WEIGHTS LIMIT 5", ids[0]),
		"FIND MODELS RANK BY TEXT 'legal contracts' LIMIT 5",
	}
	errs := make(chan error, len(queries))
	for _, q := range queries {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			for !stop.Load() {
				if _, err := l.QueryContext(ctx, q); err != nil {
					errs <- err
					return
				}
			}
		}(q)
	}
	for i, m := range pop.Members[:6] {
		c := *m.Model
		c.ID = ""
		if _, err := l.Ingest(&c, m.Card, registry.RegisterOptions{
			Name: fmt.Sprintf("race-%d", i), Version: "1"}); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := queryIDs(t, l, "FIND MODELS WHERE NAME LIKE 'race-'"); len(got) != 6 {
		t.Fatalf("after the race: %d of 6 ingested models visible", len(got))
	}
	assertSnapshotMatchesReference(t, l)
}

// cancelAfterChecks reports nil from its first n Err calls and
// context.Canceled from then on. ExecuteContext checks the context on entry
// and again before ranking a predicate-free query, so with n = 2 the
// context is canceled exactly when the ranker starts — a request timing out
// between filtering and ranking.
type cancelAfterChecks struct {
	context.Context
	left atomic.Int32
}

func (c *cancelAfterChecks) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestMLQLRankersHonorContext: a cancellation that reaches the ranker stops
// the whole-lake ranking instead of paying for it.
func TestMLQLRankersHonorContext(t *testing.T) {
	l, err := Open(Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pop := population(t, 36)
	ids := fill(t, l, pop)
	for _, q := range []string{
		fmt.Sprintf("FIND MODELS RANK BY SIMILARITY TO MODEL '%s'", ids[0]),
		fmt.Sprintf("FIND MODELS RANK BY SIMILARITY TO MODEL '%s' USING CARDS", ids[0]),
		"FIND MODELS RANK BY TEXT 'legal'",
	} {
		ctx := &cancelAfterChecks{Context: context.Background()}
		ctx.left.Store(2)
		if _, err := l.QueryContext(ctx, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got %v, want context.Canceled", q, err)
		}
	}
}

// TestMLQLRankingBypassesQueryCache: whole-lake rankings ask for more hits
// than the index holds, so they neither read nor fill the query-result
// cache, while a bounded related-model query on the same lake still misses
// and then hits.
func TestMLQLRankingBypassesQueryCache(t *testing.T) {
	l, err := Open(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pop := population(t, 37)
	ids := fill(t, l, pop)

	stats := func() (uint64, uint64, int) {
		h, m := l.QueryCacheStats()
		return h, m, l.qcache.len()
	}
	h0, m0, n0 := stats()
	for _, space := range []string{"BEHAVIOR", "WEIGHTS"} {
		q := fmt.Sprintf("FIND MODELS WHERE TASK = 'classification' RANK BY SIMILARITY TO MODEL '%s' USING %s LIMIT 5", ids[0], space)
		for i := 0; i < 2; i++ {
			queryIDs(t, l, q)
		}
	}
	if h, m, n := stats(); h != h0 || m != m0 || n != n0 {
		t.Fatalf("MLQL ranking touched the cache: hits %d→%d misses %d→%d entries %d→%d", h0, h, m0, m, n0, n)
	}

	ctx := context.Background()
	first, err := l.SearchByModelContext(ctx, ids[0], "behavior", 10)
	if err != nil {
		t.Fatal(err)
	}
	if h, m, n := stats(); h != h0 || m != m0+1 || n != n0+1 {
		t.Fatalf("first k=10 query: hits %d misses %d entries %d, want %d/%d/%d", h, m, n, h0, m0+1, n0+1)
	}
	second, err := l.SearchByModelContext(ctx, ids[0], "behavior", 10)
	if err != nil {
		t.Fatal(err)
	}
	if h, _, _ := stats(); h != h0+1 {
		t.Fatalf("repeated k=10 query did not hit the cache: hits %d", h)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached answer differs: %v vs %v", first, second)
	}
}
