package btree

import (
	"encoding/binary"
	"fmt"
	"sort"

	"probe/internal/disk"
)

// Page layouts. All integers little-endian unless they are encoded
// keys (which are big-endian so byte order matches key order).
//
// Leaf:     [type u8][count u16][next u32][prev u32]
//           count x [key 16B][value valueSize B]
// Internal: [type u8][count u16]            (count = number of seps)
//           (count+1) x [child u32]
//           count x [sepLen u16][sep bytes]

type nodeType byte

const (
	leafType     nodeType = 1
	internalType nodeType = 2
)

const (
	leafHeaderLen     = 1 + 2 + 4 + 4
	internalHeaderLen = 1 + 2
)

// maxPageSize bounds the page size: internalView addresses
// separators with 16-bit offsets.
const maxPageSize = 1 << 16

// leafNode is the decoded form of a leaf page, built only where a
// leaf is mutated (the copy-on-write writers) or checked.
type leafNode struct {
	next, prev disk.PageID
	keys       []Key
	values     [][]byte
}

// internalNode is the decoded form of an internal page:
// len(children) == len(seps) + 1, and subtree children[i] holds the
// keys k with seps[i-1] <= enc(k) < seps[i] (bounds omitted at the
// ends). Like leafNode it exists for writers and the checker; reads
// use internalView.
type internalNode struct {
	children []disk.PageID
	seps     [][]byte
}

func decodeNodeType(data []byte) nodeType { return nodeType(data[0]) }

// leafView reads a leaf page in place: a key is decoded at its offset
// on demand and a value is a subslice of the page. Its validation is
// the only one a leaf gets; decodeLeaf builds on it.
type leafView struct {
	data   []byte
	count  int
	stride int
}

func viewLeaf(data []byte, valueSize int) (leafView, error) {
	if len(data) < leafHeaderLen || decodeNodeType(data) != leafType {
		return leafView{}, fmt.Errorf("btree: page is not a leaf (type %d)", typeByte(data))
	}
	count := int(binary.LittleEndian.Uint16(data[1:3]))
	stride := encodedKeyLen + valueSize
	if leafHeaderLen+count*stride > len(data) {
		return leafView{}, fmt.Errorf("btree: leaf overflows page (%d entries)", count)
	}
	return leafView{data: data, count: count, stride: stride}, nil
}

// typeByte is the node type byte of data for error messages, 0 for
// an empty page.
func typeByte(data []byte) byte {
	if len(data) == 0 {
		return 0
	}
	return data[0]
}

func (l *leafView) key(i int) Key {
	off := leafHeaderLen + i*l.stride
	return decodeKey(l.data[off : off+encodedKeyLen])
}

func (l *leafView) value(i int) []byte {
	lo := leafHeaderLen + i*l.stride + encodedKeyLen
	hi := lo + l.stride - encodedKeyLen
	return l.data[lo:hi:hi]
}

// search returns the index of the first key >= k.
func (l *leafView) search(k Key) int {
	lo, hi := 0, l.count
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.key(mid).Less(k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func decodeLeaf(data []byte, valueSize int) (*leafNode, error) {
	l, err := viewLeaf(data, valueSize)
	if err != nil {
		return nil, err
	}
	n := &leafNode{
		next:   disk.PageID(binary.LittleEndian.Uint32(data[3:7])),
		prev:   disk.PageID(binary.LittleEndian.Uint32(data[7:11])),
		keys:   make([]Key, l.count),
		values: make([][]byte, l.count),
	}
	for i := range n.keys {
		n.keys[i] = l.key(i)
		n.values[i] = append(make([]byte, 0, valueSize), l.value(i)...)
	}
	return n, nil
}

func (n *leafNode) encode(data []byte, valueSize int) {
	for i := range data {
		data[i] = 0
	}
	data[0] = byte(leafType)
	binary.LittleEndian.PutUint16(data[1:3], uint16(len(n.keys)))
	binary.LittleEndian.PutUint32(data[3:7], uint32(n.next))
	binary.LittleEndian.PutUint32(data[7:11], uint32(n.prev))
	off := leafHeaderLen
	stride := encodedKeyLen + valueSize
	for i, k := range n.keys {
		k.encode(data[off : off+encodedKeyLen])
		copy(data[off+encodedKeyLen:off+stride], n.values[i])
		off += stride
	}
}

// internalView reads an internal page in place. Children are read at
// their offsets; separators are found through sepOffs, the offset of
// each separator's length prefix, which viewInternal fills into a
// caller-owned table so a reader can reuse one table across pages.
type internalView struct {
	data    []byte
	sepOffs []uint16
}

// viewInternal validates data as an internal page and indexes its
// separators into offs[:0].
func viewInternal(data []byte, offs []uint16) (internalView, error) {
	if len(data) < internalHeaderLen || decodeNodeType(data) != internalType {
		return internalView{}, fmt.Errorf("btree: page is not internal (type %d)", typeByte(data))
	}
	if len(data) > maxPageSize {
		return internalView{}, fmt.Errorf("btree: page of %d bytes exceeds %d", len(data), maxPageSize)
	}
	count := int(binary.LittleEndian.Uint16(data[1:3]))
	off := internalHeaderLen + (count+1)*4
	if off > len(data) {
		return internalView{}, fmt.Errorf("btree: internal node overflows page")
	}
	if cap(offs) < count {
		offs = make([]uint16, 0, count)
	}
	offs = offs[:0]
	for i := 0; i < count; i++ {
		if off+2 > len(data) {
			return internalView{}, fmt.Errorf("btree: internal node overflows page")
		}
		offs = append(offs, uint16(off))
		off += 2 + int(binary.LittleEndian.Uint16(data[off:off+2]))
		if off > len(data) {
			return internalView{}, fmt.Errorf("btree: internal node overflows page")
		}
	}
	return internalView{data: data, sepOffs: offs}, nil
}

// numChildren returns the number of children (separators + 1).
func (n *internalView) numChildren() int { return len(n.sepOffs) + 1 }

func (n *internalView) child(i int) disk.PageID {
	off := internalHeaderLen + i*4
	return disk.PageID(binary.LittleEndian.Uint32(n.data[off : off+4]))
}

func (n *internalView) sep(i int) []byte {
	off := int(n.sepOffs[i])
	l := int(binary.LittleEndian.Uint16(n.data[off : off+2]))
	return n.data[off+2 : off+2+l]
}

// childIndex returns the index of the child subtree that may contain
// the encoded key: the last child whose separator is <= enc.
func (n *internalView) childIndex(enc []byte) int {
	lo, hi := 0, len(n.sepOffs) // find count of seps <= enc
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sepCompare(n.sep(mid), enc) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func decodeInternal(data []byte) (*internalNode, error) {
	var offs [256]uint16 // see getAt
	v, err := viewInternal(data, offs[:0])
	if err != nil {
		return nil, err
	}
	n := &internalNode{
		children: make([]disk.PageID, v.numChildren()),
		seps:     make([][]byte, len(v.sepOffs)),
	}
	for i := range n.children {
		n.children[i] = v.child(i)
	}
	for i := range n.seps {
		sep := v.sep(i)
		n.seps[i] = append(make([]byte, 0, len(sep)), sep...)
	}
	return n, nil
}

func (n *internalNode) encode(data []byte) {
	for i := range data {
		data[i] = 0
	}
	data[0] = byte(internalType)
	binary.LittleEndian.PutUint16(data[1:3], uint16(len(n.seps)))
	off := internalHeaderLen
	for _, c := range n.children {
		binary.LittleEndian.PutUint32(data[off:off+4], uint32(c))
		off += 4
	}
	for _, s := range n.seps {
		binary.LittleEndian.PutUint16(data[off:off+2], uint16(len(s)))
		off += 2
		copy(data[off:off+len(s)], s)
		off += len(s)
	}
}

// childIndex is internalView.childIndex for a decoded node, used by
// writers descending to the page they will rewrite.
func (n *internalNode) childIndex(enc []byte) int {
	return sort.Search(len(n.seps), func(i int) bool { return sepCompare(n.seps[i], enc) > 0 })
}

// insertAt inserts a separator and its right child at position i.
func (n *internalNode) insertAt(i int, sep []byte, rightChild disk.PageID) {
	n.seps = append(n.seps, nil)
	copy(n.seps[i+1:], n.seps[i:])
	n.seps[i] = sep
	n.children = append(n.children, 0)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = rightChild
}

// removeAt removes separator i and child i+1 (used when merging the
// children on either side of separator i).
func (n *internalNode) removeAt(i int) {
	n.seps = append(n.seps[:i], n.seps[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}
