package main

import (
	"math/rand"

	"probe"
)

// serve-mixed: one server over a durable store (WAL on, its files on
// ramFS), driven over the wire in an open loop at a fixed rate from a
// pool of two connections, with writes beside reads and a periodic
// checkpoint. The data fits in the
// buffer pool, so the work is in client, wire, server, query, planner,
// transactions, MVCC and the WAL.
const (
	smBits    = 10    // 2-D grid, 1024 × 1024
	smBase    = 50000 // uniform points loaded before the run
	smRate    = 360   // offered operations per second: about a third of the 950-1130 the seed sustains closed-loop
	smWorkers = 2
	smCkptOps = smRate / 4 // a CHECKPOINT every quarter second of schedule
)

// smOps makes the serve-mixed sequence: every smCkptOps-th operation a
// CHECKPOINT, the rest 30% range, 10% nearest, 9% row query, 7%
// aggregate query, 4% query join, 14% insert, 18% delete, 8%
// transaction. Inserted points take fresh ids. A delete removes the
// oldest points inserted and not yet deleted, and waits (after) for
// every operation that inserted them; so no id is written twice, no two
// transactions touch one point, and deletes keep the data set near its
// starting size, which keeps the run stationary.
func smOps(rng *rand.Rand, n int) (ops []wOp, after [][]int) {
	const side = 1 << smBits
	nextID := uint64(smBase)
	var live []probe.Point // inserted, not yet deleted, oldest first
	var liveBy []int       // the operation that inserted each live point
	ops, after = make([]wOp, n), make([][]int, n)
	for i := range ops {
		if i%smCkptOps == smCkptOps-1 {
			ops[i] = wOp{kind: wCheckpoint}
			continue
		}
		r := rng.Float64()
		if r >= 0.74 && r < 0.92 && len(live) < 32 {
			r = 0.6 // nothing to delete yet: insert instead
		}
		switch {
		case r < 0.30:
			ops[i] = wReadOp(rng, wRange, side, 8, 96)
		case r < 0.40:
			ops[i] = wReadOp(rng, wNearest, side, 8, 96)
		case r < 0.49:
			ops[i] = wReadOp(rng, wRows, side, 8, 96)
		case r < 0.56:
			ops[i] = wReadOp(rng, wAgg, side, 8, 96)
		case r < 0.60:
			ops[i] = wReadOp(rng, wSQLJoin, side, 8, 96)
		case r < 0.74:
			pts := uniformPoints(rng, side, 8+rng.Intn(25), nextID)
			ops[i] = wOp{kind: wInsert, pts: pts}
		case r < 0.92:
			m := 8 + rng.Intn(25)
			ops[i] = wOp{kind: wDelete, pts: live[:m:m]}
			for j, by := range liveBy[:m] {
				if j == 0 || by != liveBy[j-1] {
					after[i] = append(after[i], by)
				}
			}
			live, liveBy = live[m:], liveBy[m:]
			continue
		default:
			// A transaction inserts into a box and reads the box back, so
			// it must see its own writes beside the snapshot.
			box := sideBox(rng, side, 16, 64)
			pts := make([]probe.Point, 4+rng.Intn(13))
			for j := range pts {
				pts[j] = probe.Pt2(nextID+uint64(j), box.Lo[0]+uint32(rng.Intn(int(box.Hi[0]-box.Lo[0]+1))),
					box.Lo[1]+uint32(rng.Intn(int(box.Hi[1]-box.Lo[1]+1))))
			}
			ops[i] = wOp{kind: wTx, box: box, pts: pts}
		}
		for _, p := range ops[i].pts {
			live, liveBy = append(live, p), append(liveBy, i)
		}
		nextID += uint64(len(ops[i].pts))
	}
	return ops, after
}

// The durable store's files on the RAM file system.
const (
	storePath = "store"
	walPath   = storePath + ".wal"
)

// smBasePoints makes the points serve-mixed's store starts with, the
// first draw from the seed's generator.
func smBasePoints(rng *rand.Rand) []probe.Point {
	return uniformPoints(rng, 1<<smBits, smBase, 0)
}

// smEnv is a ready serve-mixed system: a durable store holding the
// base points and its server.
type smEnv struct {
	fs *ramFS
	db *probe.DB
	s  *served
}

func smOpen(g probe.Grid, base []probe.Point) (*smEnv, error) {
	fs := newRAMFS()
	db, err := probe.Open(g, probe.WithDurability(storePath), probe.WithFS(fs), probe.WithBulkLoad(base))
	if err != nil {
		return nil, err
	}
	if _, err := db.Checkpoint(); err != nil {
		db.Close()
		return nil, err
	}
	s, err := serve(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	return &smEnv{fs: fs, db: db, s: s}, nil
}

func (e *smEnv) addr() string           { return e.s.addr }
func (e *smEnv) databases() []*probe.DB { return []*probe.DB{e.db} }
func (e *smEnv) files() *ramFS          { return e.fs }
func (e *smEnv) close()                 { e.s.stop() }

// smSystem is serve-mixed's system for the child process.
func smSystem(seed int64) func() (sysEnv, error) {
	g := probe.MustGrid(2, smBits)
	base := smBasePoints(rand.New(rand.NewSource(seed)))
	return func() (sysEnv, error) { return smOpen(g, base) }
}

func runServeMixed(cfg config) (*report, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	w := servingWorkload{name: "serve-mixed", g: probe.MustGrid(2, smBits), base: smBasePoints(rng),
		warm: smRate * wWarmSeconds, rate: smRate, workers: smWorkers}
	w.ops, w.after = smOps(rng, wOpCount(smRate, cfg.seconds))
	return runServing(cfg, &w)
}
