package main

import (
	"testing"

	"probe"
	"probe/client"
)

func testOracle() (*oracle, probe.Grid) {
	g := probe.MustGrid(2, 8)
	base := []probe.Point{
		probe.Pt2(1, 10, 10), probe.Pt2(2, 20, 20), probe.Pt2(3, 30, 30),
		probe.Pt2(4, 200, 200), probe.Pt2(5, 21, 10),
	}
	return newOracle(g, base), g
}

func pointsOf(ids ...uint64) []probe.Point {
	at := map[uint64]probe.Point{
		1: probe.Pt2(1, 10, 10), 2: probe.Pt2(2, 20, 20), 3: probe.Pt2(3, 30, 30),
		4: probe.Pt2(4, 200, 200), 5: probe.Pt2(5, 21, 10),
	}
	var out []probe.Point
	for _, id := range ids {
		out = append(out, at[id])
	}
	return out
}

func TestOracleRangeRejectsWrongResults(t *testing.T) {
	o, _ := testOracle()
	box := probe.Box2(0, 25, 0, 25) // holds 1, 2, 5
	rd := window{100, 200}
	if err := o.checkRange(box, pointsOf(5, 1, 2), rd, nil, nil); err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}
	for name, got := range map[string][]probe.Point{
		"missing point": pointsOf(1, 2),
		"extra point":   pointsOf(1, 2, 5, 3),
		"duplicate":     pointsOf(1, 2, 5, 5),
		"moved point":   append(pointsOf(1, 5), probe.Pt2(2, 21, 21)),
		"unknown id":    append(pointsOf(1, 2, 5), probe.Pt2(99, 11, 11)),
	} {
		if err := o.checkRange(box, got, rd, nil, nil); err == nil {
			t.Errorf("%s: injected wrong result accepted", name)
		}
	}
	// A residual filter removes point 5 (x = 21) from what must be returned.
	keep := func(p probe.Point) bool { return p.Coords[0] != 21 }
	if err := o.checkRange(box, pointsOf(1, 2), rd, nil, keep); err != nil {
		t.Errorf("filtered result rejected: %v", err)
	}
	if err := o.checkRange(box, pointsOf(1, 2, 5), rd, nil, keep); err == nil {
		t.Error("filtered-out point accepted")
	}
}

func TestOracleWriteWindows(t *testing.T) {
	o, _ := testOracle()
	box := probe.Box2(0, 50, 0, 50)
	o.inserted(probe.Pt2(10, 40, 40), window{100, 200}) // acknowledged at 200
	o.deleted(3, window{300, 400})

	// A read sent after the insert was acknowledged must see it; the
	// delete had not been sent, so point 3 must be there too.
	if err := o.checkRange(box, pointsOf(1, 2, 3, 5), window{250, 260}, nil, nil); err == nil {
		t.Error("read after an acknowledged insert missed it")
	}
	// A read answered before the insert was sent must not see it.
	early := append(pointsOf(1, 2, 3, 5), probe.Pt2(10, 40, 40))
	if err := o.checkRange(box, early, window{10, 50}, nil, nil); err == nil {
		t.Error("read before the insert was sent saw it")
	}
	// A read overlapping the delete may go either way.
	for _, got := range [][]probe.Point{
		append(pointsOf(1, 2, 3, 5), probe.Pt2(10, 40, 40)),
		append(pointsOf(1, 2, 5), probe.Pt2(10, 40, 40)),
	} {
		if err := o.checkRange(box, got, window{350, 360}, nil, nil); err != nil {
			t.Errorf("read during the delete rejected: %v", err)
		}
	}
	// After the delete was acknowledged, point 3 must be gone.
	late := append(pointsOf(1, 2, 3, 5), probe.Pt2(10, 40, 40))
	if err := o.checkRange(box, late, window{500, 510}, nil, nil); err == nil {
		t.Error("read after an acknowledged delete still saw the point")
	}
	// A transaction sees its own writes whatever the windows say.
	own := map[uint64]bool{10: true}
	if err := o.checkRange(box, early, window{10, 50}, own, nil); err != nil {
		t.Errorf("own write rejected: %v", err)
	}
}

func TestOracleNearestRejectsWrongResults(t *testing.T) {
	o, _ := testOracle()
	q := []uint32{20, 12}
	nb := func(id uint64) probe.Neighbor {
		p := pointsOf(id)[0]
		return probe.Neighbor{Point: p, Dist: dist(p, q)}
	}
	rd := window{100, 200}
	if err := o.checkNearest(q, 2, []probe.Neighbor{nb(5), nb(2)}, rd); err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}
	bad := nb(2)
	bad.Dist += 0.5
	for name, got := range map[string][]probe.Neighbor{
		"skipped nearer": {nb(5), nb(1)},
		"wrong order":    {nb(2), nb(5)},
		"too many":       {nb(5), nb(2), nb(1)},
		"wrong distance": {nb(5), bad},
		"duplicate":      {nb(5), nb(5)},
	} {
		if err := o.checkNearest(q, 2, got, rd); err == nil {
			t.Errorf("%s: injected wrong result accepted", name)
		}
	}
}

func TestOracleFingerprint(t *testing.T) {
	o, _ := testOracle()
	box := probe.Box2(0, 25, 0, 25)
	var f fingerprint
	for _, p := range pointsOf(2, 5, 1) {
		f.add(p.ID)
	}
	if f != o.fingerprintOf(box) {
		t.Fatal("fingerprint of the right set differs")
	}
	var wrong fingerprint
	for _, p := range pointsOf(2, 5, 3) {
		wrong.add(p.ID)
	}
	if wrong == o.fingerprintOf(box) {
		t.Error("fingerprint of a wrong set of the same size matches")
	}
}

func TestOracleJoinAndCount(t *testing.T) {
	a := []client.BoxItem{boxItem(1, probe.Box2(0, 10, 0, 10)), boxItem(2, probe.Box2(20, 30, 20, 30))}
	b := []client.BoxItem{boxItem(7, probe.Box2(10, 12, 10, 12)), boxItem(8, probe.Box2(11, 19, 11, 19))}
	want := []probe.Pair{{A: 1, B: 7}}
	if err := checkJoin(a, b, want); err != nil {
		t.Fatalf("correct join rejected: %v", err)
	}
	for name, got := range map[string][]probe.Pair{
		"missing pair": nil,
		"extra pair":   {{A: 1, B: 7}, {A: 2, B: 8}},
		"wrong pair":   {{A: 1, B: 8}},
	} {
		if err := checkJoin(a, b, got); err == nil {
			t.Errorf("%s: injected wrong join accepted", name)
		}
	}

	o, _ := testOracle()
	box := probe.Box2(0, 25, 0, 25) // 1, 2, 5: count 3, sum x 51
	if err := o.checkCount(box, 3, 51, window{1, 2}); err != nil {
		t.Errorf("correct aggregate rejected: %v", err)
	}
	if err := o.checkCount(box, 3, 52, window{1, 2}); err == nil {
		t.Error("wrong sum accepted")
	}
	if err := o.checkCount(box, 2, 41, window{1, 2}); err == nil {
		t.Error("wrong count accepted")
	}
}
