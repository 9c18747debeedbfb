package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// ship drains leader bytes into the follower until it is caught up,
// returning the number of pages shipped.
func ship(t *testing.T, leader, follower *Store, maxBytes int) int {
	t.Helper()
	pages := 0
	for {
		from := follower.CommitOffset()
		page, err := leader.ReadLogRange(from, maxBytes)
		if err != nil {
			t.Fatalf("ReadLogRange(%d): %v", from, err)
		}
		if len(page) == 0 {
			return pages
		}
		if err := follower.ApplyPage(page); err != nil {
			t.Fatalf("ApplyPage: %v", err)
		}
		pages++
	}
}

// assertSameState asserts the follower's live map matches the leader's.
func assertSameState(t *testing.T, leader, follower *Store) {
	t.Helper()
	if lk, fk := leader.Len(), follower.Len(); lk != fk {
		t.Fatalf("key counts differ: leader %d follower %d", lk, fk)
	}
	err := leader.Scan("", func(k string, v []byte) bool {
		got, err := follower.Get(k)
		if err != nil {
			t.Fatalf("follower missing %q: %v", k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("value mismatch at %q", k)
		}
		return true
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
}

func TestReplicationShipsAllRecordKinds(t *testing.T) {
	dir := t.TempDir()
	leader, err := Open(filepath.Join(dir, "leader.log"), Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	follower, err := Open(filepath.Join(dir, "follower.log"), Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	if err := leader.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := leader.Apply([]Op{
		{Key: "b", Value: []byte("2")},
		{Key: "c", Value: []byte("3")},
		{Key: "a", Delete: true},
	}); err != nil {
		t.Fatal(err)
	}
	if err := leader.Put("d", bytes.Repeat([]byte("x"), 4096)); err != nil {
		t.Fatal(err)
	}
	if err := leader.Delete("b"); err != nil {
		t.Fatal(err)
	}

	// Tiny maxBytes forces single-record pages, including the oversized one.
	ship(t, leader, follower, 16)
	assertSameState(t, leader, follower)
	if lo, fo := leader.CommitOffset(), follower.CommitOffset(); lo != fo {
		t.Fatalf("offsets diverged: leader %d follower %d", lo, fo)
	}

	// The follower's log must be byte-identical to the leader's: that is
	// what makes resume-from-own-offset sound.
	lb, err := os.ReadFile(filepath.Join(dir, "leader.log"))
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(filepath.Join(dir, "follower.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lb, fb) {
		t.Fatalf("follower log is not a byte copy of the leader log (%d vs %d bytes)", len(lb), len(fb))
	}
}

func TestFollowerRestartResumesFromOwnOffset(t *testing.T) {
	dir := t.TempDir()
	leader, err := Open(filepath.Join(dir, "leader.log"), Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	fpath := filepath.Join(dir, "follower.log")
	follower, err := Open(fpath, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		if err := leader.Put(fmt.Sprintf("k%02d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ship(t, leader, follower, 1<<20)
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	for i := 10; i < 20; i++ {
		if err := leader.Put(fmt.Sprintf("k%02d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	follower, err = Open(fpath, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	ship(t, leader, follower, 1<<20)
	assertSameState(t, leader, follower)
}

func TestReadLogRangeBoundaries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "s.log"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if page, err := s.ReadLogRange(0, 1<<20); err != nil || page != nil {
		t.Fatalf("empty log: page=%v err=%v", page, err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadLogRange(s.CommitOffset()+1, 1<<20); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("offset past end: want ErrOffsetOutOfRange, got %v", err)
	}
	if _, err := s.ReadLogRange(-1, 1<<20); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("negative offset: want ErrOffsetOutOfRange, got %v", err)
	}
	mem := OpenMemory()
	if _, err := mem.ReadLogRange(0, 1); !errors.Is(err, ErrNoLog) {
		t.Fatalf("in-memory: want ErrNoLog, got %v", err)
	}
}

func TestApplyPageRejectsCorruptPages(t *testing.T) {
	dir := t.TempDir()
	leader, err := Open(filepath.Join(dir, "leader.log"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	follower, err := Open(filepath.Join(dir, "follower.log"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	if err := leader.Put("k", []byte("value")); err != nil {
		t.Fatal(err)
	}
	page, err := leader.ReadLogRange(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	for name, corrupt := range map[string][]byte{
		"flipped payload byte": append(append([]byte{}, page[:len(page)-1]...), page[len(page)-1]^0xff),
		"truncated tail":       page[:len(page)-1],
		"truncated header":     page[:4],
	} {
		if err := follower.ApplyPage(corrupt); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: want ErrCorrupt, got %v", name, err)
		}
		if follower.CommitOffset() != 0 || follower.Len() != 0 {
			t.Fatalf("%s: corrupt page mutated the follower", name)
		}
	}
	// The intact page still applies after the rejected attempts.
	if err := follower.ApplyPage(page); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, leader, follower)
}

func TestCommitNotifyWakesFollower(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "s.log"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ch := s.CommitNotify()
	select {
	case <-ch:
		t.Fatal("notification before any commit")
	default:
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("no notification after commit")
	}
}

// TestGenAdvancesPerAppliedBatch: every committed batch — Put, Delete,
// Apply, epoch stamp — and every shipped page moves Gen, on durable and
// in-memory stores alike; reads and no-op deletes do not.
func TestGenAdvancesPerAppliedBatch(t *testing.T) {
	dir := t.TempDir()
	leader, err := Open(filepath.Join(dir, "leader.log"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	mem := OpenMemory()
	for _, s := range []*Store{leader, mem} {
		step := func(what string, fn func() error, moves bool) {
			t.Helper()
			before := s.Gen()
			if err := fn(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if moved := s.Gen() != before; moved != moves {
				t.Fatalf("%s: Gen moved = %v, want %v", what, moved, moves)
			}
		}
		step("put", func() error { return s.Put("model/a", []byte("1")) }, true)
		step("apply", func() error {
			return s.Apply([]Op{{Key: "model/b", Value: []byte("2")}, {Key: "card/b", Value: []byte("3")}})
		}, true)
		step("delete", func() error { return s.Delete("model/a") }, true)
		step("delete absent", func() error { return s.Delete("model/a") }, false)
		step("epoch", func() error { return s.BumpEpoch(s.Epoch() + 1) }, true)
		step("get", func() error { _, err := s.Get("model/b"); return err }, false)
		step("scan", func() error { return s.Scan("model/", func(string, []byte) bool { return true }) }, false)
	}

	page, err := leader.ReadLogRange(0, 1<<20)
	if err != nil || len(page) == 0 {
		t.Fatalf("ReadLogRange: %d bytes, %v", len(page), err)
	}
	for _, follower := range []*Store{OpenMemory(), mustOpen(t, filepath.Join(dir, "follower.log"))} {
		before := follower.Gen()
		if err := follower.ApplyPage(page); err != nil {
			t.Fatal(err)
		}
		if follower.Gen() == before {
			t.Fatal("ApplyPage did not move Gen")
		}
		follower.Close()
	}
}

func mustOpen(t *testing.T, path string) *Store {
	t.Helper()
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}
