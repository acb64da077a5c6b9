package main

import (
	"fmt"
	"math"
	"sort"

	"probe"
	"probe/client"
)

// The oracle answers every query the workloads issue by brute force
// over the points the generator made, independently of the system
// under test: a range scans the points of the few coarse grid buckets
// the box overlaps, a nearest scans every point, a join tests every
// box pair.
//
// The serving workload writes while it reads, from two connections, so
// which writes a read observes depends on timing. The oracle therefore
// keeps each point's insert and delete windows — the interval between
// sending the write and receiving its acknowledgement, as the harness
// saw them on one monotonic clock — and judges a read against the
// window of its snapshot: a point whose insert was acknowledged before
// the read was sent (and not deleted by then) must be returned; a point
// inserted after the read was answered, or deleted before it was sent,
// must not be; a point with a write in flight during the read may go
// either way. With no writes, every point is required and the checks
// are exact.

const (
	never  = math.MaxInt64 // a window that has not opened
	always = math.MinInt64 // a window closed before the run began
)

// window is a [start, end] interval in nanoseconds on the harness clock.
type window struct{ s, e int64 }

// pstate is one point the generator made, with its write windows.
type pstate struct {
	p        probe.Point
	ins, del window
}

// state classifies the point for a read whose snapshot was taken
// somewhere inside rd: +1 must be visible, -1 must not, 0 may be
// either.
func (ps *pstate) state(rd window) int {
	switch {
	case ps.ins.s > rd.e || ps.del.e < rd.s:
		return -1
	case ps.ins.e < rd.s && ps.del.s > rd.e:
		return 1
	}
	return 0
}

// oracle holds every point of one workload, bucketed on the first two
// dimensions (all workloads use 2-D grids).
type oracle struct {
	shift   uint
	side    int // buckets per axis
	pts     []pstate
	byID    map[uint64]int
	buckets [][]int32
}

// newOracle indexes the base points, present since before the run.
// The grid is cut into 64×64 buckets.
func newOracle(g probe.Grid, base []probe.Point) *oracle {
	bits := g.BitsPerDim()
	shift := uint(0)
	if bits > 6 {
		shift = uint(bits - 6)
	}
	side := int(g.Side() >> shift)
	o := &oracle{shift: shift, side: side, byID: make(map[uint64]int, len(base)),
		buckets: make([][]int32, side*side)}
	for _, p := range base {
		o.inserted(p, window{always, always})
	}
	return o
}

// inserted records a point the workload inserted during ins.
func (o *oracle) inserted(p probe.Point, ins window) {
	i := len(o.pts)
	o.pts = append(o.pts, pstate{p: p, ins: ins, del: window{never, never}})
	o.byID[p.ID] = i
	b := int(p.Coords[1]>>o.shift)*o.side + int(p.Coords[0]>>o.shift)
	o.buckets[b] = append(o.buckets[b], int32(i))
}

// deleted records that the workload deleted point id during del.
func (o *oracle) deleted(id uint64, del window) {
	if i, ok := o.byID[id]; ok {
		o.pts[i].del = del
	}
}

func inBox(p probe.Point, b probe.Box) bool {
	for d := range b.Lo {
		if p.Coords[d] < b.Lo[d] || p.Coords[d] > b.Hi[d] {
			return false
		}
	}
	return true
}

// each calls fn for every point inside box.
func (o *oracle) each(box probe.Box, fn func(*pstate)) {
	x0, x1 := int(box.Lo[0]>>o.shift), int(box.Hi[0]>>o.shift)
	y0, y1 := int(box.Lo[1]>>o.shift), int(box.Hi[1]>>o.shift)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, i := range o.buckets[y*o.side+x] {
				if ps := &o.pts[i]; inBox(ps.p, box) {
					fn(ps)
				}
			}
		}
	}
}

// checkPoint reports whether got is a point the oracle knows, with the
// coordinates it was written with, that the read rd may observe.
func (o *oracle) checkPoint(got probe.Point, rd window) (*pstate, error) {
	i, ok := o.byID[got.ID]
	if !ok {
		return nil, fmt.Errorf("returned unknown id %d", got.ID)
	}
	ps := &o.pts[i]
	for d := range ps.p.Coords {
		if d >= len(got.Coords) || got.Coords[d] != ps.p.Coords[d] {
			return nil, fmt.Errorf("id %d returned at %v, stored at %v", got.ID, got.Coords, ps.p.Coords)
		}
	}
	if ps.state(rd) < 0 {
		return nil, fmt.Errorf("id %d returned but not visible to the read", got.ID)
	}
	return ps, nil
}

// checkRange verifies a range result: every returned point lies in the
// box, passes keep (a residual filter; nil keeps all) and may be
// visible, none repeats, every required point is there. own lists
// points the reading transaction wrote itself, which it must see
// whatever their windows say.
func (o *oracle) checkRange(box probe.Box, got []probe.Point, rd window, own map[uint64]bool, keep func(probe.Point) bool) error {
	seen := make(map[uint64]bool, len(got))
	for _, p := range got {
		if seen[p.ID] {
			return fmt.Errorf("range %v returned id %d twice", box, p.ID)
		}
		seen[p.ID] = true
		if !inBox(p, box) || (keep != nil && !keep(p)) {
			return fmt.Errorf("range %v returned id %d at %v, which the query excludes", box, p.ID, p.Coords)
		}
		if own[p.ID] {
			continue
		}
		if _, err := o.checkPoint(p, rd); err != nil {
			return fmt.Errorf("range %v: %w", box, err)
		}
	}
	var err error
	o.each(box, func(ps *pstate) {
		if err != nil || seen[ps.p.ID] || (keep != nil && !keep(ps.p)) {
			return
		}
		if own[ps.p.ID] || ps.state(rd) > 0 {
			err = fmt.Errorf("range %v missed id %d at %v", box, ps.p.ID, ps.p.Coords)
		}
	})
	return err
}

// checkCount verifies an aggregate COUNT(*), SUM(x) over box against
// the bounds the visible and the possibly-visible points give; exact
// when no write was in flight.
func (o *oracle) checkCount(box probe.Box, count, sumX int64, rd window) error {
	var minN, maxN, minS, maxS int64
	o.each(box, func(ps *pstate) {
		switch ps.state(rd) {
		case 1:
			minN++
			maxN++
			minS += int64(ps.p.Coords[0])
			maxS += int64(ps.p.Coords[0])
		case 0:
			maxN++
			maxS += int64(ps.p.Coords[0])
		}
	})
	if count < minN || count > maxN || sumX < minS || sumX > maxS {
		return fmt.Errorf("aggregate over %v = (%d, %d), want count in [%d, %d], sum in [%d, %d]",
			box, count, sumX, minN, maxN, minS, maxS)
	}
	return nil
}

func dist(p probe.Point, q []uint32) float64 {
	var s float64
	for d := range q {
		v := float64(p.Coords[d]) - float64(q[d])
		s += v * v
	}
	return math.Sqrt(s)
}

// checkNearest verifies a Euclidean k-nearest result: each neighbor is
// a visible point at the distance reported, in non-decreasing order,
// and no required point nearer than the k-th is missing (ties at the
// k-th distance may go either way).
func (o *oracle) checkNearest(q []uint32, k int, got []probe.Neighbor, rd window) error {
	if len(got) > k {
		return fmt.Errorf("nearest %v k=%d returned %d", q, k, len(got))
	}
	seen := make(map[uint64]bool, len(got))
	for i, nb := range got {
		ps, err := o.checkPoint(nb.Point, rd)
		if err != nil {
			return fmt.Errorf("nearest %v: %w", q, err)
		}
		if seen[nb.Point.ID] {
			return fmt.Errorf("nearest %v returned id %d twice", q, nb.Point.ID)
		}
		seen[nb.Point.ID] = true
		if want := dist(ps.p, q); math.Abs(want-nb.Dist) > 1e-6*(1+want) {
			return fmt.Errorf("nearest %v: id %d at distance %g, reported %g", q, nb.Point.ID, want, nb.Dist)
		}
		if i > 0 && nb.Dist < got[i-1].Dist {
			return fmt.Errorf("nearest %v: results out of distance order", q)
		}
	}
	bound := math.Inf(1)
	if len(got) == k && k > 0 {
		bound = got[k-1].Dist
	}
	for i := range o.pts {
		ps := &o.pts[i]
		if ps.state(rd) > 0 && !seen[ps.p.ID] && dist(ps.p, q) < bound {
			return fmt.Errorf("nearest %v k=%d missed id %d at distance %g (k-th at %g)",
				q, k, ps.p.ID, dist(ps.p, q), bound)
		}
	}
	return nil
}

// fingerprint summarizes a result set of ids order-independently, so a
// large result can be checked without being kept.
type fingerprint struct {
	n   int
	sum uint64
}

func (f *fingerprint) add(id uint64) {
	f.n++
	f.sum += mix64(id)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fingerprintOf is the oracle's fingerprint of a range on a store with
// no writes during the run.
func (o *oracle) fingerprintOf(box probe.Box) fingerprint {
	var f fingerprint
	o.each(box, func(ps *pstate) { f.add(ps.p.ID) })
	return f
}

// joinPairs is the brute-force spatial join of two box relations: every
// (a, b) whose boxes share a grid cell, sorted and distinct.
func joinPairs(a, b []client.BoxItem) []probe.Pair {
	var out []probe.Pair
	for _, x := range a {
		for _, y := range b {
			if boxesMeet(x, y) {
				out = append(out, probe.Pair{A: x.ID, B: y.ID})
			}
		}
	}
	sortPairs(out)
	n := 0
	for i, p := range out {
		if i == 0 || p != out[n-1] {
			out[n] = p
			n++
		}
	}
	return out[:n]
}

func boxesMeet(x, y client.BoxItem) bool {
	for d := range x.Lo {
		if x.Hi[d] < y.Lo[d] || y.Hi[d] < x.Lo[d] {
			return false
		}
	}
	return true
}

func sortPairs(ps []probe.Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
}

// checkJoin compares a join result against the brute-force pairs.
func checkJoin(a, b []client.BoxItem, got []probe.Pair) error {
	want := joinPairs(a, b)
	g := append([]probe.Pair(nil), got...)
	sortPairs(g)
	if len(g) != len(want) {
		return fmt.Errorf("join of %d×%d boxes returned %d pairs, want %d", len(a), len(b), len(g), len(want))
	}
	for i := range g {
		if g[i] != want[i] {
			return fmt.Errorf("join pair %d is %v, want %v", i, g[i], want[i])
		}
	}
	return nil
}
