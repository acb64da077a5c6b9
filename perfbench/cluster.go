package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"

	"probe"
	"probe/client"
	"probe/internal/router"
)

// cluster-join: a router over two in-memory shards, seeded through the
// router, driven over the wire in an open loop at a fixed rate from two
// connections. Most operations are joins of box relations spread over
// the whole grid, so every join fans out to both shards and its work
// is decomposition and the core merge join, touching no index; the
// rest are shard-spanning ranges, nearest queries and aggregates. No
// writes after seeding.
const (
	cjBits      = 10 // 2-D grid, 1024 × 1024
	cjShards    = 2
	cjBase      = 20000 // uniform points seeded through the router
	cjSeedBatch = 500
	cjRate      = 170 // offered operations per second: about a third of the 490-520 the seed sustains closed-loop
	cjWorkers   = 2
)

// cjOps makes the cluster-join sequence: 60% joins of two relations of
// 48 to 128 boxes with sides from 4 to 32, 15% ranges that straddle
// the grid's center (so both shards hold part of them), 10% nearest,
// 15% aggregates over center-straddling boxes.
func cjOps(rng *rand.Rand, n int) []wOp {
	const side = 1 << cjBits
	rel := func() []client.BoxItem {
		items := make([]client.BoxItem, 48+rng.Intn(81))
		for i := range items {
			items[i] = boxItem(uint64(i), sideBox(rng, side, 4, 32))
		}
		return items
	}
	ops := make([]wOp, n)
	for i := range ops {
		switch r := rng.Float64(); {
		case r < 0.60:
			ops[i] = wOp{kind: wJoin, a: rel(), b: rel()}
		case r < 0.75:
			ops[i] = wOp{kind: wRange, box: centerBox(rng, side, 16, 128)}
		case r < 0.85:
			ops[i] = wReadOp(rng, wNearest, side, 0, 0)
		default:
			box := centerBox(rng, side, 64, 384)
			ops[i] = wOp{kind: wAgg, box: box,
				sql: fmt.Sprintf("SELECT COUNT(*), SUM(x) FROM points WHERE CONTAINS(%s)", boxSQL(box))}
		}
	}
	return ops
}

// centerBox places a box with sides drawn from [lo, hi] so that it
// contains the grid's four central cells, which z-order puts in
// different halves of the key space whichever axis leads.
func centerBox(rng *rand.Rand, side uint32, lo, hi int) probe.Box {
	w := uint32(lo + rng.Intn(hi-lo+1))
	h := uint32(lo + rng.Intn(hi-lo+1))
	mid := side / 2
	x := mid - 1 - uint32(rng.Intn(int(w-1)))
	y := mid - 1 - uint32(rng.Intn(int(h-1)))
	return probe.Box2(x, x+w-1, y, y+h-1)
}

// cjBasePoints makes the points cluster-join seeds, the first draw
// from the seed's generator.
func cjBasePoints(rng *rand.Rand) []probe.Point {
	return uniformPoints(rng, 1<<cjBits, cjBase, 0)
}

// cjEnv is a ready cluster: shards and the router.
type cjEnv struct {
	dbs    []*probe.DB
	shards []*served
	rt     *router.Router
	raddr  string
	rdone  chan error
}

func cjOpen(g probe.Grid, base []probe.Point) (*cjEnv, error) {
	e := &cjEnv{}
	var addrs []string
	for i := 0; i < cjShards; i++ {
		db, err := probe.Open(g)
		if err != nil {
			e.close()
			return nil, err
		}
		s, err := serve(db)
		if err != nil {
			db.Close()
			e.close()
			return nil, err
		}
		e.dbs, e.shards = append(e.dbs, db), append(e.shards, s)
		addrs = append(addrs, s.addr)
	}
	m, err := router.BuildEvenMap(router.DefaultPrefixBits(cjShards), addrs, nil)
	if err != nil {
		e.close()
		return nil, err
	}
	// zrouted's defaults: no request log, no sampled traces.
	if e.rt, err = router.New(router.Config{Map: m, LogEvery: -1}); err != nil {
		e.close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.rt.Start(ctx); err != nil {
		e.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.raddr, e.rdone = ln.Addr().String(), make(chan error, 1)
	go func() { e.rdone <- e.rt.Serve(ln) }()
	if err := cjSeed(ctx, e.raddr, base); err != nil {
		e.close()
		return nil, fmt.Errorf("seeding through the router: %w", err)
	}
	return e, nil
}

// cjSeed inserts the base points through the router in batches.
func cjSeed(ctx context.Context, addr string, base []probe.Point) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	for i := 0; i < len(base); i += cjSeedBatch {
		if _, err := c.Insert(ctx, base[i:min(i+cjSeedBatch, len(base))]); err != nil {
			return err
		}
	}
	return nil
}

func (e *cjEnv) addr() string           { return e.raddr }
func (e *cjEnv) databases() []*probe.DB { return e.dbs }
func (e *cjEnv) files() *ramFS          { return nil }

func (e *cjEnv) close() {
	if e.rdone != nil {
		e.rt.Shutdown(context.Background())
		<-e.rdone
	}
	for _, s := range e.shards {
		s.stop()
	}
}

// cjSystem is cluster-join's system for the child process.
func cjSystem(seed int64) func() (sysEnv, error) {
	g := probe.MustGrid(2, cjBits)
	base := cjBasePoints(rand.New(rand.NewSource(seed)))
	return func() (sysEnv, error) { return cjOpen(g, base) }
}

func runClusterJoin(cfg config) (*report, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	w := servingWorkload{name: "cluster-join", g: probe.MustGrid(2, cjBits), base: cjBasePoints(rng),
		warm: cjRate * wWarmSeconds, rate: cjRate, workers: cjWorkers}
	w.ops = cjOps(rng, wOpCount(cjRate, cfg.seconds))
	return runServing(cfg, &w)
}
