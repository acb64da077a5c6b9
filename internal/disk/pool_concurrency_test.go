package disk

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// replayRandomPool runs a fixed access pattern against a Random-policy
// pool built on the given source and returns the ids resident at the
// end plus the final stats — a full fingerprint of eviction behavior.
func replayRandomPool(t *testing.T, rng *rand.Rand) ([]PageID, PoolStats) {
	t.Helper()
	store := MustMemStore(128)
	pool, err := NewPoolRand(store, 8, Random, rng)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 32; i++ {
		f, err := pool.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.ID)
		if err := pool.Unpin(f.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	// A deterministic but shuffled re-access pattern, so eviction has
	// real choices to make.
	for i := 0; i < 200; i++ {
		id := ids[(i*13)%len(ids)]
		f, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.Unpin(f.ID, false); err != nil {
			t.Fatal(err)
		}
	}
	var resident []PageID
	for _, id := range ids {
		pool.mu.Lock()
		_, ok := pool.frames[id]
		pool.mu.Unlock()
		if ok {
			resident = append(resident, id)
		}
	}
	sort.Slice(resident, func(i, j int) bool { return resident[i] < resident[j] })
	return resident, pool.Stats()
}

// TestRandomEvictionReproducible: with an injected seeded source, the
// Random policy is a pure function of the access pattern — the
// property the buffer-policy ablation benchmark depends on.
func TestRandomEvictionReproducible(t *testing.T) {
	res1, stats1 := replayRandomPool(t, rand.New(rand.NewSource(7)))
	res2, stats2 := replayRandomPool(t, rand.New(rand.NewSource(7)))
	if fmt.Sprint(res1) != fmt.Sprint(res2) {
		t.Errorf("same seed, different resident sets:\n%v\n%v", res1, res2)
	}
	if stats1 != stats2 {
		t.Errorf("same seed, different stats: %+v vs %+v", stats1, stats2)
	}
	// A different seed must be able to change the eviction choices
	// (fixed workload, so this is deterministic, not flaky).
	res3, _ := replayRandomPool(t, rand.New(rand.NewSource(8)))
	if fmt.Sprint(res1) == fmt.Sprint(res3) {
		t.Errorf("different seeds produced identical resident sets; injection has no effect")
	}
	// nil rng falls back to the default fixed seed — same as NewPool.
	res4, _ := replayRandomPool(t, nil)
	res5, _ := replayRandomPool(t, rand.New(rand.NewSource(0x5eed)))
	if fmt.Sprint(res4) != fmt.Sprint(res5) {
		t.Errorf("nil rng does not match the default seed")
	}
}

// TestPoolConcurrentReaders hammers one pool from many goroutines:
// Get/Unpin of a page set larger than capacity (so eviction churns),
// with concurrent Stats reads and periodic Flushes. Run under -race
// this proves the pool latch covers every path.
func TestPoolConcurrentReaders(t *testing.T) {
	store := MustMemStore(128)
	pool := MustPool(store, 16, LRU)
	var ids []PageID
	for i := 0; i < 64; i++ {
		f, err := pool.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		f.Data[0] = byte(i)
		f.SetDirty()
		ids = append(ids, f.ID)
		if err := pool.Unpin(f.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}

	const goroutines = 12
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for w := 0; w < goroutines; w++ {
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				idx := rng.Intn(len(ids))
				f, err := pool.Get(ids[idx])
				if err != nil {
					errc <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				if got := f.Data[0]; got != byte(idx) {
					errc <- fmt.Errorf("worker %d: page %d holds %d, want %d", w, ids[idx], got, idx)
					pool.Unpin(f.ID, false)
					return
				}
				if err := pool.Unpin(f.ID, false); err != nil {
					errc <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				if i%31 == 0 {
					pool.Stats()
					pool.Resident()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := pool.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions; the stress test did not exceed capacity")
	}
	if got := st.Gets; got != goroutines*300 {
		t.Errorf("stats lost updates: %d gets, want %d", got, goroutines*300)
	}
	if st.Hits+st.Misses != st.Gets {
		t.Errorf("hits %d + misses %d != gets %d", st.Hits, st.Misses, st.Gets)
	}
}

// TestPoolRecycledBuffersRace evicts continuously under concurrent
// readers, so admitted frames keep taking over the buffers of evicted
// victims. Every page is filled with a pattern derived from its id;
// a reader that sees any other byte while it holds the pin has been
// handed a buffer still in use or not fully refilled. Run it with
// -race: a recycled buffer shared with an unpinned reader is a data
// race.
func TestPoolRecycledBuffersRace(t *testing.T) {
	const (
		pageSize = 256
		pages    = 64
		readers  = 4
		gets     = 2000
	)
	store := MustMemStore(pageSize)
	var ids []PageID
	for i := 0; i < pages; i++ {
		id, err := store.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Write(id, patternPage(id, pageSize)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	pool := MustPool(store, readers+2, LRU)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < gets; i++ {
				id := ids[rng.Intn(len(ids))]
				f, err := pool.Get(id)
				if err != nil {
					t.Error(err)
					return
				}
				want := byte(id)
				for j, b := range f.Data {
					if b != want+byte(j) {
						t.Errorf("page %d byte %d = %d, want %d", id, j, b, want+byte(j))
						break
					}
				}
				if err := pool.Unpin(id, false); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if st := pool.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions: %+v", st)
	}
}

// patternPage is page id's test contents: byte j is byte(id)+j.
func patternPage(id PageID, size int) []byte {
	b := make([]byte, size)
	for j := range b {
		b[j] = byte(id) + byte(j)
	}
	return b
}

// TestPoolNewPageZeroedAfterRecycle checks that a page admitted into a
// recycled buffer starts zeroed, as Store.Allocate promises, and not
// with the evicted victim's bytes.
func TestPoolNewPageZeroedAfterRecycle(t *testing.T) {
	pool := MustPool(MustMemStore(128), 1, LRU)
	f, err := pool.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	for j := range f.Data {
		f.Data[j] = 0xAB
	}
	if err := pool.Unpin(f.ID, true); err != nil {
		t.Fatal(err)
	}
	g, err := pool.NewPage() // evicts f and takes over its buffer
	if err != nil {
		t.Fatal(err)
	}
	for j, b := range g.Data {
		if b != 0 {
			t.Fatalf("new page byte %d = %#x after recycling, want 0", j, b)
		}
	}
	if err := pool.Unpin(g.ID, false); err != nil {
		t.Fatal(err)
	}
	// The victim's write-back happened before its buffer was reused.
	h, err := pool.Get(f.ID)
	if err != nil {
		t.Fatal(err)
	}
	if h.Data[0] != 0xAB || h.Data[len(h.Data)-1] != 0xAB {
		t.Fatalf("evicted page read back as %#x..%#x, want 0xab", h.Data[0], h.Data[len(h.Data)-1])
	}
	pool.Unpin(h.ID, false)
}
