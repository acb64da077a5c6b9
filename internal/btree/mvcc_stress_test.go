package btree

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"probe/internal/disk"
)

// This file stress-tests the MVCC machinery itself: concurrent root
// publication (writers committing new versions), reader pin/unpin
// (snapshot open/close), and version garbage collection, all racing —
// run it with -race. The property layer (package probe's
// TestMVCCIsolationProperty) checks read *contents*; here the focus is
// the version-chain lifecycle: no torn pins, no double frees, full
// drain once quiescent, and an allocation-bounded snapshot open.

// TestMVCCStressRace races writers, snapshot readers, and an explicit
// GC loop against one tree. Writers use disjoint key ranges so the
// final state is checkable; readers verify that each pinned version
// is internally consistent (a full iteration sees exactly Len()
// strictly-ascending keys — impossible if any of its pages were
// reclaimed or overwritten underneath it).
func TestMVCCStressRace(t *testing.T) {
	pool := disk.MustPool(disk.MustMemStore(512), 128, disk.LRU)
	tr, err := New(pool, Config{ValueSize: 0, LeafCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers   = 2
		readers   = 4
		writerOps = 1500
	)
	var wg sync.WaitGroup
	writersDone := make(chan struct{})
	liveCounts := make([]int, writers)

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		writerWG.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(int64(w) + 97))
			var live []Key
			for i := 0; i < writerOps; i++ {
				if len(live) == 0 || rng.Intn(100) < 60 {
					k := Key{Hi: rng.Uint64(), Lo: uint64(w)<<32 | uint64(i)}
					if err := tr.Insert(k, nil); err != nil {
						t.Errorf("writer %d: insert: %v", w, err)
						return
					}
					live = append(live, k)
				} else {
					j := rng.Intn(len(live))
					ok, err := tr.Delete(live[j])
					if err != nil || !ok {
						t.Errorf("writer %d: delete: ok=%v err=%v", w, ok, err)
						return
					}
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			liveCounts[w] = len(live)
		}(w)
	}
	go func() { writerWG.Wait(); close(writersDone) }()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i > 0 {
					select {
					case <-writersDone:
						return
					default:
					}
				}
				s := tr.Snapshot()
				want := s.Len()
				c := s.Cursor()
				n := 0
				var last Key
				ok, err := c.First()
				for ; ok && err == nil; ok, err = c.Next() {
					k := c.Key()
					if n > 0 && !last.Less(k) {
						t.Errorf("reader %d: snapshot seq %d out of order at entry %d", r, s.Seq(), n)
						s.Release()
						return
					}
					last = k
					n++
				}
				if err != nil {
					t.Errorf("reader %d: iterate snapshot seq %d: %v", r, s.Seq(), err)
					s.Release()
					return
				}
				if n != want {
					t.Errorf("reader %d: snapshot seq %d iterated %d entries, Len says %d",
						r, s.Seq(), n, want)
					s.Release()
					return
				}
				s.Release()
			}
		}(r)
	}

	// The GC antagonist: explicit collection racing the writers' own
	// commit-time collection and the readers' pin/unpin.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-writersDone:
				return
			default:
			}
			tr.CollectGarbage()
			_ = tr.MVCCStats()
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiescent: everything released, so explicit GC must drain the
	// whole version chain.
	tr.CollectGarbage()
	st := tr.MVCCStats()
	if st.PinnedSnapshots != 0 || st.RetainedVersions != 0 || st.RetainedPages != 0 {
		t.Fatalf("version chain not drained: %+v", st)
	}
	if st.FreeFailures != 0 {
		t.Fatalf("%d pages failed to free: %+v", st.FreeFailures, st)
	}
	want := 0
	for _, n := range liveCounts {
		want += n
	}
	if tr.Len() != want {
		t.Fatalf("final Len %d, writers left %d live keys", tr.Len(), want)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotOpenAllocs bounds the allocation cost of the untraced
// read-only snapshot open: pinning the current version and releasing
// it must stay O(1) allocations (the Snapshot struct itself, plus at
// most one amortized pinnedVers slot), so the per-query snapshot the
// DB layer opens for every untraced read adds no per-request garbage
// beyond the handle.
func TestSnapshotOpenAllocs(t *testing.T) {
	pool := disk.MustPool(disk.MustMemStore(512), 64, disk.LRU)
	tr, err := New(pool, Config{ValueSize: 0, LeafCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := tr.Insert(Key{Hi: uint64(i) * 2654435761, Lo: uint64(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the pin table so its backing array reaches steady-state
	// capacity before measuring.
	s := tr.Snapshot()
	s.Release()

	allocs := testing.AllocsPerRun(500, func() {
		s := tr.Snapshot()
		s.Release()
	})
	if allocs > 2 {
		t.Errorf("snapshot open+release costs %.1f allocs/op, want <= 2", allocs)
	}
}

// TestLiveCursorRacesGC walks live cursors (Tree.Cursor, which re-pins
// the current version at every step) while writers commit and GC frees
// superseded pages that the store hands straight back out to the next
// writer. A live cursor keeps copies of pages across steps, so this is
// where a page cached under one version and reused under another would
// show: stable keys, present in every version, must each be seen
// exactly once per walk, keys must ascend, and every value must match
// its key. The small pool also evicts constantly, recycling frame
// buffers under the readers. Run it with -race.
func TestLiveCursorRacesGC(t *testing.T) {
	pool := disk.MustPool(disk.MustMemStore(512), 48, disk.LRU)
	tr, err := New(pool, Config{ValueSize: 8, LeafCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	check := func(k Key) uint64 { return k.Hi*0x9E3779B97F4A7C15 ^ k.Lo }
	const (
		stable    = 300
		writers   = 2
		readers   = 2
		writerOps = 1200
	)
	for i := uint64(0); i < stable; i++ {
		k := Key{Hi: i << 54} // Lo 0: writers' keys never collide
		if err := tr.Insert(k, val8(check(k))); err != nil {
			t.Fatal(err)
		}
	}

	var wg, writerWG sync.WaitGroup
	writersDone := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		writerWG.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(int64(w) + 7))
			var live []Key
			for i := 0; i < writerOps; i++ {
				if len(live) == 0 || rng.Intn(100) < 55 {
					k := Key{Hi: rng.Uint64(), Lo: uint64(w+1)<<32 | uint64(i)}
					if err := tr.Insert(k, val8(check(k))); err != nil {
						t.Errorf("writer %d: insert: %v", w, err)
						return
					}
					live = append(live, k)
				} else {
					j := rng.Intn(len(live))
					if ok, err := tr.Delete(live[j]); err != nil || !ok {
						t.Errorf("writer %d: delete: ok=%v err=%v", w, ok, err)
						return
					}
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
		}(w)
	}
	go func() { writerWG.Wait(); close(writersDone) }()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := tr.Cursor() // one cursor for every walk: its cache spans versions
			rng := rand.New(rand.NewSource(int64(r) + 31))
			for walk := 0; ; walk++ {
				if walk > 0 {
					select {
					case <-writersDone:
						return
					default:
					}
				}
				seen, n := 0, 0
				var last Key
				ok, err := c.First()
				for ; ok && err == nil; ok, err = c.Next() {
					k := c.Key()
					if n > 0 && !last.Less(k) {
						t.Errorf("reader %d walk %d: %v after %v", r, walk, k, last)
						return
					}
					if got := binary.LittleEndian.Uint64(c.Value()); got != check(k) {
						t.Errorf("reader %d walk %d: %v has value %x, want %x", r, walk, k, got, check(k))
						return
					}
					if k.Lo == 0 {
						seen++
					}
					last = k
					n++
				}
				if err != nil {
					t.Errorf("reader %d walk %d: %v", r, walk, err)
					return
				}
				if seen != stable {
					t.Errorf("reader %d walk %d: saw %d stable keys, want %d", r, walk, seen, stable)
					return
				}
				for i := 0; i < 20; i++ {
					k := Key{Hi: uint64(rng.Intn(stable)) << 54}
					if ok, err := c.SeekGE(k); err != nil || !ok || c.Key() != k {
						t.Errorf("reader %d: SeekGE(%v) = %v, %v", r, k, ok, err)
						return
					}
				}
			}
		}(r)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-writersDone:
				return
			default:
			}
			tr.CollectGarbage()
		}
	}()
	wg.Wait()
	if st := tr.MVCCStats(); st.FreedPages == 0 {
		t.Fatalf("GC freed nothing; the walk never raced page reuse: %+v", st)
	}
}
