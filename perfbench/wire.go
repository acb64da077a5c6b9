package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"probe"
	"probe/client"
)

// The two serving workloads drive the system over the wire with the
// operations below, from one process on at most two connections.

type wKind uint8

const (
	wRange      wKind = iota // RANGE
	wNearest                 // NNEAREST, Euclidean
	wRows                    // QUERY: row select with a residual filter
	wAgg                     // QUERY: COUNT(*), SUM(x) over a box
	wSQLJoin                 // QUERY: points JOIN REGIONS(...)
	wJoin                    // JOIN of two box relations
	wInsert                  // INSERT batch (auto-commit)
	wDelete                  // DELETE batch (auto-commit)
	wTx                      // BEGIN, INSERT, RANGE, COMMIT
	wCheckpoint              // CHECKPOINT
)

var wKindNames = [...]string{"range", "nearest", "query-rows", "query-agg", "query-join",
	"join", "insert", "delete", "tx", "checkpoint"}

func (k wKind) read() bool  { return k <= wJoin }
func (k wKind) write() bool { return k == wInsert || k == wDelete || k == wTx }

// wOp is one operation; only the fields its kind uses are set.
type wOp struct {
	kind    wKind
	box     probe.Box // range, query box, and the tx's read
	q       []uint32
	k       int
	sql     string
	regions []client.BoxItem // query-join
	a, b    []client.BoxItem // join
	pts     []probe.Point    // insert, delete, tx
}

// reqTrace is one traced request: the client-observed service time
// and what the server sent back with the reply.
type reqTrace struct {
	name    string
	service time.Duration
	timing  client.Timing
	tree    *probe.Trace
	stats   probe.QueryStats
}

// wOut is one operation's outcome, checked after the pass.
type wOut struct {
	begin  window // a tx's BEGIN: its snapshot was taken inside it
	pts    []probe.Point
	nbs    []probe.Neighbor
	rows   []probe.QueryRow
	pairs  []probe.Pair
	n      int           // points an insert or delete applied
	commit time.Duration // service time of the request that committed
	err    error
	reqs   []reqTrace // traced pass only
}

// wExec runs op on conn. now reads the harness clock for the windows a
// tx needs; traced collects each request's server-side breakdown.
func wExec(ctx context.Context, c *client.Conn, op *wOp, out *wOut, now func() time.Duration, traced bool) {
	call := func(name string, fn func() (probe.QueryStats, error)) error {
		t0 := time.Now()
		qs, err := fn()
		d := time.Since(t0)
		if err == nil && (op.kind == wInsert || op.kind == wDelete || name == "commit") {
			out.commit = d
		}
		if traced {
			out.reqs = append(out.reqs, reqTrace{name: name, service: d,
				timing: c.LastTiming(), tree: c.LastTraceTree(), stats: qs})
		}
		return err
	}
	var err error
	switch op.kind {
	case wRange:
		err = call("range", func() (qs probe.QueryStats, err error) {
			out.pts, qs, err = c.Range(ctx, op.box.Lo, op.box.Hi)
			return
		})
	case wNearest:
		err = call("nearest", func() (qs probe.QueryStats, err error) {
			out.nbs, qs, err = c.Nearest(ctx, op.q, op.k, probe.Euclidean)
			return
		})
	case wRows, wAgg, wSQLJoin:
		err = call("query", func() (probe.QueryStats, error) {
			res, err := c.Query(ctx, op.sql)
			if err != nil {
				return probe.QueryStats{}, err
			}
			out.rows = res.Rows
			return res.Stats, nil
		})
	case wJoin:
		err = call("join", func() (qs probe.QueryStats, err error) {
			out.pairs, qs, err = c.Join(ctx, op.a, op.b, 0)
			return
		})
	case wInsert:
		err = call("insert", func() (probe.QueryStats, error) {
			qs, err := c.Insert(ctx, op.pts)
			out.n = qs.Results
			return qs, err
		})
	case wDelete:
		err = call("delete", func() (probe.QueryStats, error) {
			qs, err := c.Delete(ctx, op.pts)
			out.n = qs.Results
			return qs, err
		})
	case wCheckpoint:
		err = call("checkpoint", func() (probe.QueryStats, error) { return c.Checkpoint(ctx) })
	case wTx:
		err = wExecTx(ctx, c, op, out, now, call)
	}
	out.err = err
}

func wExecTx(ctx context.Context, c *client.Conn, op *wOp, out *wOut, now func() time.Duration,
	call func(string, func() (probe.QueryStats, error)) error) error {
	var tx *client.Tx
	out.begin.s = int64(now())
	err := call("begin", func() (probe.QueryStats, error) {
		var err error
		tx, err = c.Begin(ctx)
		return probe.QueryStats{}, err
	})
	out.begin.e = int64(now())
	if err != nil {
		return err
	}
	err = call("insert", func() (probe.QueryStats, error) {
		qs, err := tx.Insert(ctx, op.pts)
		out.n = qs.Results
		return qs, err
	})
	if err == nil {
		err = call("range", func() (qs probe.QueryStats, err error) {
			out.pts, qs, err = tx.Range(ctx, op.box.Lo, op.box.Hi)
			return
		})
	}
	if err != nil {
		tx.Rollback(ctx)
		return err
	}
	return call("commit", func() (probe.QueryStats, error) { return tx.Commit(ctx) })
}

// wRecordWrites tells the oracle what every write did and when. A
// failed write may or may not have been applied, so its points stay
// in doubt from the moment it was sent.
func wRecordWrites(o *oracle, ops []wOp, outs []wOut, tm []opTiming) {
	for i := range ops {
		op, out := &ops[i], &outs[i]
		w := window{int64(tm[i].sent), int64(tm[i].done)}
		if out.err != nil {
			w.e = never
		}
		switch op.kind {
		case wInsert, wTx:
			for _, p := range op.pts {
				o.inserted(p, w)
			}
		case wDelete:
			for _, p := range op.pts {
				o.deleted(p.ID, w)
			}
		}
	}
}

// wCheck verifies every outcome against the oracle, counting errors,
// refusals and conflicts as failures and oracle mismatches as wrong.
func wCheck(o *oracle, ops []wOp, outs []wOut, tm []opTiming) tally {
	t := tally{attempted: len(ops)}
	for i := range ops {
		op, out := &ops[i], &outs[i]
		if out.err != nil {
			t.fail(false, fmt.Errorf("%s: %w", wKindNames[op.kind], out.err))
			continue
		}
		if err := wCheckOne(o, op, out, window{int64(tm[i].sent), int64(tm[i].done)}); err != nil {
			t.fail(true, fmt.Errorf("%s: %w", wKindNames[op.kind], err))
		}
	}
	return t
}

func wCheckOne(o *oracle, op *wOp, out *wOut, rd window) error {
	switch op.kind {
	case wRange:
		return o.checkRange(op.box, out.pts, rd, nil, nil)
	case wNearest:
		return o.checkNearest(op.q, op.k, out.nbs, rd)
	case wRows:
		pts, err := rowPoints(out.rows, 0)
		if err != nil {
			return err
		}
		xlo := op.box.Lo[0]
		return o.checkRange(op.box, pts, rd, nil, func(p probe.Point) bool { return p.Coords[0] != xlo })
	case wAgg:
		var count, sum int64
		if len(out.rows) > 0 {
			if len(out.rows) != 1 || len(out.rows[0]) != 2 {
				return fmt.Errorf("aggregate returned %d rows", len(out.rows))
			}
			count, sum = intOf(out.rows[0][0]), intOf(out.rows[0][1])
		}
		return o.checkCount(op.box, count, sum, rd)
	case wSQLJoin:
		byRegion := make(map[uint64][]probe.QueryRow)
		for _, r := range out.rows {
			if len(r) != 4 {
				return fmt.Errorf("join row has %d columns", len(r))
			}
			id, _ := r[0].(uint64)
			byRegion[id] = append(byRegion[id], r[1:])
		}
		for _, rg := range op.regions {
			pts, err := rowPoints(byRegion[rg.ID], 0)
			if err != nil {
				return err
			}
			delete(byRegion, rg.ID)
			if err := o.checkRange(probe.Box{Lo: rg.Lo, Hi: rg.Hi}, pts, rd, nil, nil); err != nil {
				return fmt.Errorf("region %d: %w", rg.ID, err)
			}
		}
		if len(byRegion) > 0 {
			return fmt.Errorf("rows for %d unknown regions", len(byRegion))
		}
	case wJoin:
		return checkJoin(op.a, op.b, out.pairs)
	case wInsert, wDelete:
		if out.n != len(op.pts) {
			return fmt.Errorf("applied %d of %d points", out.n, len(op.pts))
		}
	case wTx:
		if out.n != len(op.pts) {
			return fmt.Errorf("inserted %d of %d points", out.n, len(op.pts))
		}
		own := make(map[uint64]bool, len(op.pts))
		for _, p := range op.pts {
			own[p.ID] = true
		}
		return o.checkRange(op.box, out.pts, out.begin, own, nil)
	}
	return nil
}

// rowPoints reads (id, x, y) rows starting at column off.
func rowPoints(rows []probe.QueryRow, off int) ([]probe.Point, error) {
	pts := make([]probe.Point, len(rows))
	for i, r := range rows {
		if len(r) < off+3 {
			return nil, fmt.Errorf("row has %d columns", len(r))
		}
		id, ok := r[off].(uint64)
		if !ok {
			return nil, fmt.Errorf("id column holds %T", r[off])
		}
		pts[i] = probe.Pt2(id, uint32(intOf(r[off+1])), uint32(intOf(r[off+2])))
	}
	return pts, nil
}

func intOf(v probe.QueryValue) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case uint64:
		return int64(x)
	case float64:
		return int64(x)
	}
	return 0
}

// boxItem makes a join item.
func boxItem(id uint64, b probe.Box) client.BoxItem {
	return client.BoxItem{ID: id, Lo: b.Lo, Hi: b.Hi}
}

// sideBox places a box with sides drawn from [lo, hi] uniformly in a
// square space.
func sideBox(rng *rand.Rand, side uint32, lo, hi int) probe.Box {
	w := uint32(lo + rng.Intn(hi-lo+1))
	h := uint32(lo + rng.Intn(hi-lo+1))
	x := uint32(rng.Intn(int(side - w + 1)))
	y := uint32(rng.Intn(int(side - h + 1)))
	return probe.Box2(x, x+w-1, y, y+h-1)
}

func boxSQL(b probe.Box) string {
	return fmt.Sprintf("BOX(%d, %d, %d, %d)", b.Lo[0], b.Hi[0], b.Lo[1], b.Hi[1])
}

// uniformPoints makes n points uniformly over a square space with ids
// from first on.
func uniformPoints(rng *rand.Rand, side uint32, n int, first uint64) []probe.Point {
	pts := make([]probe.Point, n)
	for i := range pts {
		pts[i] = probe.Pt2(first+uint64(i), uint32(rng.Intn(int(side))), uint32(rng.Intn(int(side))))
	}
	return pts
}

// isConflict reports a transaction that lost first-committer-wins.
func isConflict(err error) bool { return errors.Is(err, client.ErrTxConflict) }

// wReadOp makes one of the read kinds both serving workloads share.
func wReadOp(rng *rand.Rand, kind wKind, side uint32, boxLo, boxHi int) wOp {
	op := wOp{kind: kind}
	switch kind {
	case wRange:
		op.box = sideBox(rng, side, boxLo, boxHi)
	case wNearest:
		op.q = []uint32{uint32(rng.Intn(int(side))), uint32(rng.Intn(int(side)))}
		op.k = []int{1, 8, 32}[rng.Intn(3)]
	case wRows:
		op.box = sideBox(rng, side, boxLo, boxHi)
		op.sql = fmt.Sprintf("SELECT id, x, y FROM points WHERE CONTAINS(%s) AND x != %d",
			boxSQL(op.box), op.box.Lo[0])
	case wAgg:
		op.box = sideBox(rng, side, 2*boxLo, 4*boxHi)
		op.sql = fmt.Sprintf("SELECT COUNT(*), SUM(x) FROM points WHERE CONTAINS(%s)", boxSQL(op.box))
	case wSQLJoin:
		n := 2 + rng.Intn(3)
		sql := "SELECT region, id, x, y FROM points JOIN REGIONS("
		for r := 0; r < n; r++ {
			b := sideBox(rng, side, boxLo/2, boxHi/2)
			op.regions = append(op.regions, boxItem(uint64(r+1), b))
			if r > 0 {
				sql += ", "
			}
			sql += fmt.Sprintf("%d %s", r+1, boxSQL(b))
		}
		op.sql = sql + ") ON INTERSECTS"
	}
	return op
}
