package btree

import (
	"bytes"
	"encoding/binary"
	"testing"

	"probe/internal/disk"
)

// TestCursorStepsAllocFree pins the read path's allocation contract: a
// warmed snapshot cursor reads pages through its own buffers and in-place
// views, so seeks and full forward and backward scans — which cross
// every leaf boundary and every internal-subtree boundary — allocate
// nothing, and Get allocates at most the copy of the value it returns.
func TestCursorStepsAllocFree(t *testing.T) {
	tree := newTestTree(t, 512, 8, 8, 4096)
	const n = 3000
	for i := uint64(0); i < n; i++ {
		if err := tree.Insert(Key{Hi: i * 7919 % n, Lo: i}, val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Height() < 3 {
		t.Fatalf("height %d: the scan must cross internal subtrees", tree.Height())
	}
	s := tree.Snapshot()
	defer s.Release()
	c := s.Cursor()
	steps := func() {
		seen := 0
		ok, err := c.First()
		for ; ok && err == nil; ok, err = c.Next() {
			_ = c.Value()
			seen++
		}
		if err != nil || seen != n {
			t.Fatalf("forward scan saw %d entries (err %v), want %d", seen, err, n)
		}
		if ok, err = c.SeekGE(Key{Hi: n - 1}); !ok || err != nil {
			t.Fatalf("seek to last: %v %v", ok, err)
		}
		for ok, err = c.Next(); ok; ok, err = c.Next() {
		}
		if ok, err = c.SeekGE(Key{Hi: n - 1}); !ok || err != nil {
			t.Fatalf("seek to last: %v %v", ok, err)
		}
		for ; ok && err == nil; ok, err = c.Prev() {
			seen--
		}
		if err != nil || seen != 0 { // Hi is a permutation of [0, n): the seek is on the last entry
			t.Fatalf("backward scan left %d entries unseen (err %v)", seen, err)
		}
		for hi := uint64(0); hi < n; hi += 37 {
			if ok, err := c.SeekGE(Key{Hi: hi}); !ok || err != nil || c.Key().Hi != hi {
				t.Fatalf("SeekGE(%d): ok=%v err=%v", hi, ok, err)
			}
		}
	}
	steps() // warm: the cursor grows its buffers and offset tables
	if a := testing.AllocsPerRun(20, steps); a != 0 {
		t.Errorf("warmed cursor steps allocate %.1f times per run, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if v, ok, err := s.Get(Key{Hi: 1234, Lo: 0}); err != nil || (ok && len(v) != 8) {
			t.Fatalf("Get: %v %v %v", v, ok, err)
		}
	}); a > 1 {
		t.Errorf("Get allocates %.1f times, want <= 1 (the value copy)", a)
	}
}

// FuzzPageViews checks the in-place views against the decoders on
// arbitrary page bytes: either both reject the page or both accept it
// and read the same entries, and the views' binary searches pick the
// same slot as the decoded-node searches writers use. Neither side
// may panic.
func FuzzPageViews(f *testing.F) {
	leaf := &leafNode{
		keys:   []Key{{Hi: 1, Lo: 2}, {Hi: 1, Lo: 9}, {Hi: 5}},
		values: [][]byte{{1, 2}, {3, 4}, {5, 6}},
	}
	page := make([]byte, 128)
	leaf.encode(page, 2)
	f.Add(append([]byte(nil), page...), uint8(2), []byte{0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(page[:40], uint8(2), []byte{})
	in := &internalNode{
		children: []disk.PageID{3, 4, 5, 6},
		seps:     [][]byte{{0x10}, {0x20, 0x01}, {0x30}},
	}
	in.encode(page)
	f.Add(append([]byte(nil), page...), uint8(0), []byte{0x20})
	f.Add(page[:12], uint8(0), []byte{0x20, 0x01, 0x05})
	f.Add([]byte{}, uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, data []byte, valueSize uint8, probe []byte) {
		vs := int(valueSize)
		var pk [encodedKeyLen]byte
		copy(pk[:], probe)
		k := decodeKey(pk[:])

		lv, lerr := viewLeaf(data, vs)
		ln, nerr := decodeLeaf(data, vs)
		if (lerr == nil) != (nerr == nil) {
			t.Fatalf("leaf: view err %v, decode err %v", lerr, nerr)
		}
		if lerr == nil {
			if lv.count != len(ln.keys) {
				t.Fatalf("leaf: view has %d entries, decode %d", lv.count, len(ln.keys))
			}
			for i := range ln.keys {
				if lv.key(i) != ln.keys[i] || !bytes.Equal(lv.value(i), ln.values[i]) {
					t.Fatalf("leaf entry %d differs", i)
				}
			}
			if a, b := lv.search(k), searchLeaf(ln, k); a != b {
				t.Fatalf("leaf search(%v): view %d, decoded %d", k, a, b)
			}
		}

		iv, ierr := viewInternal(data, nil)
		in, derr := decodeInternal(data)
		if (ierr == nil) != (derr == nil) {
			t.Fatalf("internal: view err %v, decode err %v", ierr, derr)
		}
		if ierr == nil {
			if iv.numChildren() != len(in.children) || len(in.seps) != len(in.children)-1 {
				t.Fatalf("internal: view has %d children, decode %d", iv.numChildren(), len(in.children))
			}
			for i, c := range in.children {
				if iv.child(i) != c {
					t.Fatalf("internal child %d differs", i)
				}
			}
			for i, s := range in.seps {
				if !bytes.Equal(iv.sep(i), s) {
					t.Fatalf("internal separator %d differs", i)
				}
			}
			if a, b := iv.childIndex(probe), in.childIndex(probe); a != b {
				t.Fatalf("childIndex(%x): view %d, decoded %d", probe, a, b)
			}
		}
	})
}

// TestViewsRejectOverflow: every bounds check the decoders make lives
// in the views — a count that runs past the page, a separator that
// runs past the page, and the wrong page type each fail cleanly.
func TestViewsRejectOverflow(t *testing.T) {
	page := make([]byte, 64)
	(&leafNode{keys: []Key{{Hi: 1}}, values: [][]byte{nil}}).encode(page, 0)
	binary.LittleEndian.PutUint16(page[1:3], 4) // 4 x 16 bytes past a 64-byte page
	if _, err := viewLeaf(page, 0); err == nil {
		t.Error("leaf whose count overflows the page was accepted")
	}
	if _, err := viewInternal(page, nil); err == nil {
		t.Error("leaf viewed as internal")
	}
	(&internalNode{children: []disk.PageID{1, 2}, seps: [][]byte{{7}}}).encode(page)
	if _, err := viewLeaf(page, 0); err == nil {
		t.Error("internal page viewed as leaf")
	}
	binary.LittleEndian.PutUint16(page[internalHeaderLen+8:], 200) // separator length past the page
	if _, err := viewInternal(page, nil); err == nil {
		t.Error("internal page whose separator overflows was accepted")
	}
	binary.LittleEndian.PutUint16(page[1:3], 40) // 41 children past the page
	if _, err := viewInternal(page, nil); err == nil {
		t.Error("internal page whose children overflow was accepted")
	}
}
