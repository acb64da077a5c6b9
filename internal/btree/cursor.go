package btree

import (
	"context"
	"fmt"

	"probe/internal/disk"
	"probe/internal/obs"
)

// Cursor iterates leaf entries in key order. It supports the two
// access patterns the range-search merge requires (Section 3.3):
// sequential access (Next, via the descent stack) and random access
// (SeekGE, a root-to-leaf descent).
//
// A cursor owns one page buffer per depth of its descent path — the
// internal nodes from the root down, plus one leaf. Each page load
// pins the page, copies its bytes into the buffer for that depth, and
// unpins; the cursor then reads the copy in place through a view
// (keys decoded at their offsets, separators found through a reused
// offset table), so a warmed cursor steps without allocating. It
// holds no pins between steps, so any number of cursors may be open.
// Sequential steps reuse the cached path: advancing to a neighboring
// leaf under the same parent costs one leaf read, with internal reads
// only when the walk crosses a subtree boundary.
//
// A cursor obtained from Tree.Cursor is live: each step pins the
// current committed version, so steps interleaved with writes observe
// the newest data — each step is consistent, but the sequence may
// span versions (the cursor re-anchors by key when the tree changed
// under it, so it never follows stale pages). A cursor obtained from
// Snapshot.Cursor is bound to that snapshot's version for its whole
// lifetime and is immune to concurrent writes. A cursor itself must
// not be shared between goroutines.
type Cursor struct {
	t     *Tree
	snap  *Snapshot // non-nil: fixed-version cursor
	v     *version  // version the cached path below belongs to
	stack []cursorLevel
	page  []byte // the leaf's page copy
	leaf  leafView
	id    disk.PageID
	pos   int
	valid bool
	span  *obs.Span       // traversal-work attribution; nil = untraced
	ctx   context.Context // cancellation; nil = never cancelled
}

// cursorLevel is one internal node on the descent path: the cursor's
// copy of its page, a view over that copy, and the index of the child
// the path went into. Entries past len(stack) keep their buffers for
// the next descent.
type cursorLevel struct {
	page  []byte
	n     internalView
	id    disk.PageID
	child int
}

// Cursor returns a new live cursor positioned before the first entry.
func (t *Tree) Cursor() *Cursor { return &Cursor{t: t} }

// SetSpan attributes the cursor's traversal work to sp: one
// obs.Seeks per SeekGE, obs.NodeVisits per internal node loaded, and
// obs.LeafScans per leaf page loaded (rescans included —
// distinct-page counting is the caller's concern). A nil span
// disables attribution at zero cost.
func (c *Cursor) SetSpan(sp *obs.Span) { c.span = sp }

// SetContext makes the cursor cancellable: every page-load boundary
// checks the context first and fails with its error once it is done.
// Cancellation therefore costs at most the leaf already in hand: a
// cancelled cursor performs no further page reads. A nil context (the
// default) disables the checks at zero cost.
func (c *Cursor) SetContext(ctx context.Context) { c.ctx = ctx }

// ctxErr reports the cursor's cancellation state.
func (c *Cursor) ctxErr() error {
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Err()
}

// errReleasedSnapshot guards against use-after-Release bugs.
var errReleasedSnapshot = fmt.Errorf("btree: cursor on released snapshot")

// acquire returns the version this step reads and whether the caller
// must unpin it afterwards. Snapshot cursors read their pinned
// version for free; live cursors pin the current version for the
// duration of one step.
func (c *Cursor) acquire() (*version, bool, error) {
	if c.snap != nil {
		if c.snap.released {
			return nil, false, errReleasedSnapshot
		}
		return c.snap.v, false, nil
	}
	return c.t.pin(), true, nil
}

// Valid reports whether the cursor is positioned on an entry.
func (c *Cursor) Valid() bool { return c.valid }

// Key returns the current entry's key; the cursor must be Valid.
func (c *Cursor) Key() Key {
	if !c.valid {
		panic("btree: Key on invalid cursor")
	}
	return c.leaf.key(c.pos)
}

// Value returns the current entry's value; the cursor must be Valid.
// The returned slice aliases the cursor's copy of the leaf page, which
// the next page load overwrites; callers must not hold it across Next,
// Prev or SeekGE.
func (c *Cursor) Value() []byte {
	if !c.valid {
		panic("btree: Value on invalid cursor")
	}
	return c.leaf.value(c.pos)
}

// LeafID returns the page id of the leaf under the cursor; the
// cursor must be Valid. The experiment harness uses it to attribute
// entries to pages (Figure 6).
func (c *Cursor) LeafID() disk.PageID {
	if !c.valid {
		panic("btree: LeafID on invalid cursor")
	}
	return c.id
}

// First positions the cursor on the smallest entry. It reports
// whether the tree is non-empty.
func (c *Cursor) First() (bool, error) {
	return c.SeekGE(Key{})
}

// anchor makes v the version the cursor's cached pages belong to. A
// page id cached under another version may have been freed and reused
// since, so switching versions forgets every cached page.
func (c *Cursor) anchor(v *version) {
	if c.v == v {
		return
	}
	c.v = v
	levels := c.stack[:cap(c.stack)]
	for i := range levels {
		levels[i].id = disk.InvalidPage
	}
	c.id = disk.InvalidPage
}

// fetch makes buf hold page id of the cursor's version, where *held
// names the page buf holds now. The page is pinned, copied and
// unpinned, so the cursor never aliases a frame the pool may recycle.
// Every fetch is a pool access, which keeps page counts those of the
// paper's model; but the pages of one version never change, so a
// buffer that already holds the page is not copied again, and fetch
// reports whether it copied.
func (c *Cursor) fetch(id disk.PageID, held *disk.PageID, buf *[]byte) (bool, error) {
	if err := c.ctxErr(); err != nil {
		return false, err
	}
	f, err := c.t.pool.Get(id)
	if err != nil {
		return false, err
	}
	fresh := *held != id
	if fresh {
		*buf = append((*buf)[:0], f.Data...)
		*held = id
	}
	return fresh, c.t.pool.Unpin(id, false)
}

// push reads internal page id onto the descent path and returns its
// level.
func (c *Cursor) push(id disk.PageID) (*cursorLevel, error) {
	if len(c.stack) < cap(c.stack) {
		c.stack = c.stack[:len(c.stack)+1]
	} else {
		c.stack = append(c.stack, cursorLevel{}) // id InvalidPage: holds nothing
	}
	l := &c.stack[len(c.stack)-1]
	fresh, err := c.fetch(id, &l.id, &l.page)
	if err == nil && fresh {
		if l.n, err = viewInternal(l.page, l.n.sepOffs); err != nil {
			l.id = disk.InvalidPage
		}
	}
	if err != nil {
		c.stack = c.stack[:len(c.stack)-1]
		return nil, err
	}
	c.span.Inc(obs.NodeVisits)
	return l, nil
}

// readLeaf reads leaf page id into the cursor's leaf buffer.
func (c *Cursor) readLeaf(id disk.PageID) error {
	fresh, err := c.fetch(id, &c.id, &c.page)
	if err == nil && fresh {
		if c.leaf, err = viewLeaf(c.page, c.t.valueSize); err != nil {
			c.id = disk.InvalidPage
		}
	}
	if err != nil {
		return err
	}
	c.span.Inc(obs.LeafScans)
	return nil
}

// descend rebuilds the cursor's path from v's root to the leaf
// responsible for k.
func (c *Cursor) descend(v *version, k Key) error {
	var enc [encodedKeyLen]byte
	k.encode(enc[:])
	c.anchor(v)
	c.stack = c.stack[:0]
	id := v.root
	for level := v.height; level > 1; level-- {
		l, err := c.push(id)
		if err != nil {
			return err
		}
		l.child = l.n.childIndex(enc[:])
		id = l.n.child(l.child)
	}
	return c.readLeaf(id)
}

// descendEdge descends to the leftmost (rightmost) leaf of the
// subtree rooted at id, extending the cached path.
func (c *Cursor) descendEdge(v *version, id disk.PageID, rightmost bool) (bool, error) {
	c.anchor(v)
	for len(c.stack)+1 < v.height {
		l, err := c.push(id)
		if err != nil {
			c.valid = false
			return false, err
		}
		l.child = 0
		if rightmost {
			l.child = l.n.numChildren() - 1
		}
		id = l.n.child(l.child)
	}
	if err := c.readLeaf(id); err != nil {
		c.valid = false
		return false, err
	}
	if rightmost {
		c.pos = c.leaf.count - 1
	} else {
		c.pos = 0
	}
	c.valid = c.leaf.count > 0
	return c.valid, nil
}

// nextLeaf moves to the first entry of the leaf after the current one
// by walking the cached path: pop exhausted levels, advance the first
// ancestor with a further child, descend its leftmost edge.
func (c *Cursor) nextLeaf(v *version) (bool, error) {
	for len(c.stack) > 0 {
		top := &c.stack[len(c.stack)-1]
		if top.child+1 < top.n.numChildren() {
			top.child++
			return c.descendEdge(v, top.n.child(top.child), false)
		}
		c.stack = c.stack[:len(c.stack)-1]
	}
	c.valid = false
	return false, nil
}

// prevLeaf is nextLeaf's mirror image.
func (c *Cursor) prevLeaf(v *version) (bool, error) {
	for len(c.stack) > 0 {
		top := &c.stack[len(c.stack)-1]
		if top.child > 0 {
			top.child--
			return c.descendEdge(v, top.n.child(top.child), true)
		}
		c.stack = c.stack[:len(c.stack)-1]
	}
	c.valid = false
	return false, nil
}

// SeekGE positions the cursor on the first entry with key >= k.
func (c *Cursor) SeekGE(k Key) (bool, error) {
	if err := c.ctxErr(); err != nil {
		c.valid = false
		return false, err
	}
	v, rel, err := c.acquire()
	if err != nil {
		c.valid = false
		return false, err
	}
	if rel {
		defer c.t.unpin(v)
	}
	c.span.Inc(obs.Seeks)
	if err := c.descend(v, k); err != nil {
		c.valid = false
		return false, err
	}
	c.pos = c.leaf.search(k)
	if c.pos < c.leaf.count {
		c.valid = true
		return true, nil
	}
	// The target starts past this leaf's end (the descend key landed
	// at a leaf boundary).
	return c.nextLeaf(v)
}

// Next advances to the next entry in key order.
func (c *Cursor) Next() (bool, error) {
	if !c.valid {
		return false, nil
	}
	if c.pos+1 < c.leaf.count {
		c.pos++
		return true, nil
	}
	// Crossing a leaf boundary needs a consistent view: pin one.
	last := c.leaf.key(c.leaf.count - 1)
	v, rel, err := c.acquire()
	if err != nil {
		c.valid = false
		return false, err
	}
	if rel {
		defer c.t.unpin(v)
	}
	if v != c.v {
		// The tree changed since the cached path was built: the old
		// page ids may be gone. Re-anchor by key in the new version.
		if err := c.descend(v, last); err != nil {
			c.valid = false
			return false, err
		}
		c.pos = c.leaf.search(last)
		if c.pos < c.leaf.count && c.leaf.key(c.pos) == last {
			c.pos++
		}
		if c.pos < c.leaf.count {
			c.valid = true
			return true, nil
		}
	}
	return c.nextLeaf(v)
}

// Prev moves to the previous entry in key order.
func (c *Cursor) Prev() (bool, error) {
	if !c.valid {
		return false, nil
	}
	if c.pos > 0 {
		c.pos--
		return true, nil
	}
	first := c.leaf.key(0)
	v, rel, err := c.acquire()
	if err != nil {
		c.valid = false
		return false, err
	}
	if rel {
		defer c.t.unpin(v)
	}
	if v != c.v {
		if err := c.descend(v, first); err != nil {
			c.valid = false
			return false, err
		}
		c.pos = c.leaf.search(first) - 1
		if c.pos >= 0 {
			c.valid = true
			return true, nil
		}
	}
	return c.prevLeaf(v)
}
