package lake

// Shard-addressable surface. A cluster router (internal/cluster) composes
// lakes out of these primitives:
//
//   - WAL shipping passthroughs (WALOffset/WALNotify/ReadWAL/ApplyWAL) turn
//     any durable lake into a replication leader or follower. ApplyWAL is
//     the follower half: it lands the shipped page in the local kvstore and
//     then refreshes the in-memory indexes from the applied ops, so a
//     replica serves vector, keyword, and MLQL reads without ever taking a
//     write of its own.
//   - Scatter-gather read primitives (EmbedModelQuery, SearchByVectorSpace,
//     KeywordStatsFor, SearchKeywordWithStats, ScoresAbove, Catalog) expose
//     the per-shard halves of cluster-wide searches, factored so the router
//     can merge per-shard answers into results bitwise-identical to a
//     single-node lake over the union (see internal/cluster).

import (
	"context"
	"errors"
	"strings"
	"time"

	"modellake/internal/kvstore"
	"modellake/internal/mlql"
	"modellake/internal/provenance"
	"modellake/internal/search"
	"modellake/internal/tensor"
)

// WALOffset returns the durable end offset of the lake's metadata log — the
// replication cursor. Zero for in-memory lakes.
func (l *Lake) WALOffset() int64 { return l.kv.CommitOffset() }

// WALNotify returns the kvstore's coalesced commit-notification channel, so
// a shipper can block until there may be new log bytes instead of polling.
func (l *Lake) WALNotify() <-chan struct{} { return l.kv.CommitNotify() }

// ReadWAL returns committed metadata-log bytes from offset from, trimmed to
// whole records and about maxBytes — the leader half of WAL shipping.
func (l *Lake) ReadWAL(from int64, maxBytes int) ([]byte, error) {
	return l.kv.ReadLogRange(from, maxBytes)
}

// ApplyWAL applies a page shipped from this lake's leader: the kvstore
// validates and lands it (log append + fsync + map apply, exactly like a
// local commit), and then the in-memory search indexes absorb the new state.
// The blob store is shared with the leader (Config.BlobDir), so metadata is
// the only thing that ships.
//
// Index updates mirror commitIngest: vec/<id> records feed the content
// indexes (models become searchable by vector the moment their registration
// applies), card/<id> records feed the keyword index, and model/<id> records
// invalidate the caches that derive from the registry. The task-search
// roster takes the same lazy path rehydration uses — handles load on the
// replica's first task search, not on every shipped page.
func (l *Lake) ApplyWAL(page []byte) error {
	recs, err := kvstore.DecodePage(page)
	if err != nil {
		return err
	}
	if err := l.kv.ApplyPage(page); err != nil {
		return err
	}
	for _, ops := range recs {
		for i := range ops {
			l.applyReplicatedOp(&ops[i])
		}
	}
	l.qcache.invalidate()
	return nil
}

// applyReplicatedOp updates the in-memory indexes for one already-applied
// op. It runs after the whole page landed in the kvstore, so registry reads
// here see every key the op's batch carried.
func (l *Lake) applyReplicatedOp(op *kvstore.Op) {
	switch {
	case strings.HasPrefix(op.Key, vecPrefix):
		if op.Delete {
			return
		}
		id := op.Key[len(vecPrefix):]
		ns, vecs, err := decodeVecRecord(op.Value)
		if err != nil || ns != l.vecNS {
			return
		}
		for _, sv := range vecs {
			switch sv.Space {
			case l.behaviorCS.EmbedderName():
				if err := l.behaviorCS.AddVector(id, sv.Vec); err == nil {
					l.mu.Lock()
					l.taskPending = append(l.taskPending, id)
					l.taskReady = false
					l.mu.Unlock()
				}
			case l.weightCS.EmbedderName():
				_ = l.weightCS.AddVector(id, sv.Vec)
			}
		}
	case strings.HasPrefix(op.Key, "card/"):
		id := op.Key[len("card/"):]
		if op.Delete {
			_ = l.keyword.Remove(id)
			return
		}
		if c, err := l.reg.Card(id); err == nil {
			_ = l.keyword.Add(id, c.Text())
		}
	case strings.HasPrefix(op.Key, "model/"):
		id := op.Key[len("model/"):]
		l.mu.Lock()
		delete(l.modelCache, id) // reload lazily from the replicated record
		l.graph = nil            // population changed: cached version graph is stale
		l.mu.Unlock()
	}
}

// WALEpoch returns the replication leadership epoch last seen in the lake's
// metadata log — zero until some leader of this log's history was promoted.
func (l *Lake) WALEpoch() uint64 { return l.kv.Epoch() }

// BumpWALEpoch durably stamps a new leadership epoch into the metadata log
// (see kvstore.BumpEpoch). A promoted leader calls it immediately after
// Promote, so the stamp's byte offset marks the exact point up to which a
// deposed leader's history is authoritative.
func (l *Lake) BumpWALEpoch(epoch uint64) error { return l.kv.BumpEpoch(epoch) }

// Promote flips a Follower replica into a write-accepting leader after the
// cluster layer has fully caught it up with the dead leader's log. Two
// things distinguish a follower from a leader inside the lake itself, and
// both flip here: per-commit fsync (replicas run Sync:false and re-ship
// after a crash; a leader's acks must be durable, so sync restores the
// template's setting) and the benchmark score cache (redirected to private
// memory on a follower so the log stays a byte prefix of its leader's;
// re-pointed at the durable store now that this log IS the authoritative
// history). Everything else — indexes, registry, blob store — is already
// identical to the dead leader's state by the catch-up invariant.
func (l *Lake) Promote(sync bool) error {
	if !l.cfg.Follower {
		return errors.New("lake: Promote called on a lake that is not a follower")
	}
	l.cfg.Follower = false
	l.kv.SetSync(sync)
	l.runner.SetStore(l.kv)
	return nil
}

// EmbedModelQuery embeds lake model id into the named content space — the
// owner-shard half of a cluster model-as-query search, split from the scan
// so the query vector can fan out to every shard.
func (l *Lake) EmbedModelQuery(id, space string) (tensor.Vector, error) {
	cs, err := l.contentSearcher(space)
	if err != nil {
		return nil, err
	}
	h, err := l.Model(id)
	if err != nil {
		return nil, err
	}
	return cs.EmbedQuery(h)
}

// SearchByVectorSpace is the raw per-shard scan behind cluster
// scatter-gather: the local top-k by vector in the named space, with no
// self-exclusion (the router excludes the query model after merging). It
// shares the query-result cache with the single-node read path.
func (l *Lake) SearchByVectorSpace(ctx context.Context, space string, v tensor.Vector, k int) ([]search.Hit, error) {
	defer mSearchDurs("vector").Since(time.Now())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cs, err := l.contentSearcher(space)
	if err != nil {
		return nil, err
	}
	return l.searchVector(ctx, cs, space, v, k)
}

// searchVector is the one cached vector scan under both model-as-query
// search and SearchByVectorSpace: the raw top-k of cs by v, served from
// and stored to the query-result cache. A k above the index size asks for
// the whole index — MLQL's whole-lake rankings do, once per query — and
// such answers neither consult nor fill the cache, so an entry never holds
// more than k hits of a bounded related-model query.
func (l *Lake) searchVector(ctx context.Context, cs *search.ContentSearcher, space string, v tensor.Vector, k int) ([]search.Hit, error) {
	if k > cs.Len() {
		return cs.SearchByVectorContext(ctx, v, k)
	}
	// The cache key includes the searcher's space name; normalize "" so the
	// default space shares entries with its explicit spelling.
	if space == "" {
		space = "behavior"
	}
	if raw, ok := l.qcache.get(space, v, k); ok {
		return raw, nil
	}
	raw, err := cs.SearchByVectorContext(ctx, v, k)
	if err != nil {
		return nil, err
	}
	l.qcache.put(space, v, k, raw)
	return raw, nil
}

// KeywordStatsFor returns this lake's BM25 corpus statistics for an
// already-tokenized query — phase one of an exact cluster keyword search.
func (l *Lake) KeywordStatsFor(tokens []string) search.KeywordStats {
	l.ensureKeyword()
	return l.keyword.Stats(tokens)
}

// SearchKeywordWithStats ranks this lake's documents under cluster-global
// BM25 statistics — phase two of an exact cluster keyword search. The only
// error source is a failed block read on a disk-resident postings segment.
func (l *Lake) SearchKeywordWithStats(query string, g search.KeywordStats, k int) ([]search.Hit, error) {
	l.ensureKeyword()
	return l.keyword.SearchWithStats(query, g, k)
}

// ScoresAbove returns the IDs of this lake's models scoring strictly above
// baseline on bench, skipping excludeID and (like the single-node catalog)
// models the benchmark cannot run on — the per-shard half of a cluster
// OUTPERFORMS query, with the baseline computed once on the owner shard.
func (l *Lake) ScoresAbove(bench string, baseline float64, excludeID string) (map[string]bool, error) {
	snap, err := l.snapshotCatalog()
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, row := range snap.rows {
		if row.ID == excludeID {
			continue
		}
		s, err := l.Score(row.ID, bench)
		if err != nil {
			continue
		}
		if s > baseline {
			out[row.ID] = true
		}
	}
	return out, nil
}

// Catalog exposes the lake's MLQL catalog adapter, so a cluster router can
// delegate per-shard catalog primitives (candidate rows, lineage closure,
// benchmark ranking) to each shard and merge. Its rankers search under
// context.Background; QueryContext ranks under the query's own context.
func (l *Lake) Catalog() mlql.Catalog { return &catalog{l: l, ctx: context.Background()} }

// ProvenanceWhy explains an entity from the provenance journal — the
// routable form of Provenance().Why for servers that may front a cluster
// rather than a single lake.
func (l *Lake) ProvenanceWhy(entity string) (*provenance.Explanation, error) {
	return l.prov.Why(entity)
}
