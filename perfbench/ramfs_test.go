package main

import (
	"testing"

	"probe"
)

// The durable store runs its whole protocol on ramFS: a store written,
// checkpointed and closed reopens through recovery with every point.
func TestRAMFSHoldsADurableStore(t *testing.T) {
	fs := newRAMFS()
	g := probe.MustGrid(2, 10)
	db, err := probe.Open(g, probe.WithDurability(storePath), probe.WithFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := db.Insert(probe.Pt2(uint64(i), uint32(i%1024), uint32(i*7%1024))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	n, ok, _ := fs.Stat(walPath)
	if !ok || n == 0 || fs.bytes() <= n {
		t.Fatalf("store files after close: wal %d bytes (exists %v), all %d", n, ok, fs.bytes())
	}
	if w := fs.written(walPath); w < n {
		t.Errorf("%d bytes written to the WAL, fewer than the %d it holds", w, n)
	}
	db, err = probe.Open(g, probe.WithDurability(storePath), probe.WithFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.Len(); got != 500 {
		t.Errorf("reopened store holds %d points, want 500", got)
	}
	pts, _, err := db.RangeSearch(probe.Box2(0, 1023, 0, 1023))
	if err != nil || len(pts) != 500 {
		t.Errorf("range over the reopened store: %d points, %v", len(pts), err)
	}
}
