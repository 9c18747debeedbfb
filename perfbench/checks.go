package main

import (
	"context"
	"fmt"
	"math"
	"strings"

	"modellake/internal/lake"
	"modellake/internal/search"
)

// direct answers a recorded request by calling the lake itself, bypassing
// HTTP and any wrapper.
func direct(ctx context.Context, lk *lake.Lake, r request) (answer, error) {
	var a answer
	var hits []search.Hit
	var err error
	switch r.Kind {
	case kindRelated:
		hits, err = lk.SearchByModelContext(ctx, r.ID, r.Space, r.K)
	case kindSearch:
		hits, err = lk.SearchKeywordContext(ctx, r.Q, r.K)
	case kindQuery:
		res, qerr := lk.QueryContext(ctx, r.Q)
		if qerr != nil {
			return a, qerr
		}
		for _, h := range res.Hits {
			a.IDs = append(a.IDs, h.ID)
			a.Scores = append(a.Scores, h.Score)
		}
		return a, nil
	default:
		return a, fmt.Errorf("no direct call for %q", r.Kind)
	}
	for _, h := range hits {
		a.IDs = append(a.IDs, h.ID)
		a.Scores = append(a.Scores, h.Score)
	}
	return a, err
}

// sameAnswer requires the same IDs in the same order with the same score
// bits.
func sameAnswer(got, want answer) error {
	if len(got.IDs) != len(want.IDs) {
		return fmt.Errorf("%d hits, want %d", len(got.IDs), len(want.IDs))
	}
	for i := range got.IDs {
		if got.IDs[i] != want.IDs[i] {
			return fmt.Errorf("hit %d is %s (score %v), want %s (score %v)",
				i, got.IDs[i], got.Scores[i], want.IDs[i], want.Scores[i])
		}
		if math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
			return fmt.Errorf("hit %d (%s) scores %v, want %v", i, got.IDs[i], got.Scores[i], want.Scores[i])
		}
	}
	return nil
}

// satisfies checks that every hit of a query meets the query's predicate,
// read from the hit's card (or its record where the catalog reads it
// there): the card's domain, task or transform for a field predicate, the
// record's declared training data for TRAINED ON.
func satisfies(lk *lake.Lake, r request, a answer) error {
	if r.PredField == "" {
		return nil
	}
	for _, id := range a.IDs {
		rec, err := lk.Record(id)
		if err != nil {
			return fmt.Errorf("hit %s: %w", id, err)
		}
		var got string
		switch r.PredField {
		case "dataset":
			got = rec.DeclaredData
		default:
			crd, err := lk.Card(id)
			if err != nil {
				return fmt.Errorf("hit %s: %w", id, err)
			}
			switch r.PredField {
			case "domain":
				got = crd.Domain
				if got == "" {
					got = rec.Domain
				}
			case "task":
				got = crd.Task
			case "transform":
				got = crd.Transform
			}
		}
		if !strings.EqualFold(got, r.PredValue) {
			return fmt.Errorf("hit %s has %s %q, query asked for %q", id, r.PredField, got, r.PredValue)
		}
	}
	return nil
}

// checkSamples replays each recorded read against lk and counts every
// answer that differs from the direct one, or a query hit that misses the
// query's predicate, as a failed operation.
func checkSamples(ctx context.Context, lk *lake.Lake, samples []sample, t *tally) error {
	for _, s := range samples {
		want, err := direct(ctx, lk, s.Req)
		if err != nil {
			return fmt.Errorf("direct %s: %w", s.Req.Path, err)
		}
		if err := sameAnswer(s.Ans, want); err != nil {
			t.fail("%s: answer differs from the direct call: %v", s.Req.Path, err)
			continue
		}
		if err := satisfies(lk, s.Req, s.Ans); err != nil {
			t.fail("%s: %v", s.Req.Path, err)
		}
	}
	return nil
}

// checkDurable reopens a cluster's directory and requires every
// acknowledged model to be readable, every model a read returned to exist,
// and the model count to be the base population plus the acknowledged
// models. Each missing model and a wrong count is one failed operation.
func checkDurable(w *workload, dir string, base int, t *tally) error {
	d, err := openDeployment(w, w.cfg, dir)
	if err != nil {
		return fmt.Errorf("reopen for durability check: %w", err)
	}
	for _, id := range t.acked {
		if _, err := d.api.Record(id); err != nil {
			t.fail("acknowledged model %s unreadable after reopen: %v", id, err)
		}
	}
	for id := range t.seen {
		if _, err := d.api.Record(id); err != nil {
			t.fail("model %s returned by a read does not exist: %v", id, err)
		}
	}
	if got, want := d.api.Count(), base+len(t.acked); got != want {
		t.fail("reopened lake holds %d models, want %d base + %d acknowledged", got, base, len(t.acked))
	}
	return d.Close()
}
