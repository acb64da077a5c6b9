package main

import (
	"context"
	"fmt"
	"net"
	"runtime/debug"
	"strings"
	"time"

	"probe"
	"probe/client"
	"probe/internal/server"
)

// served is one server on a loopback listener, in the process that runs
// the system.
type served struct {
	srv  *server.Server
	addr string
	done chan error
}

func serve(db *probe.DB) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: server.New(db, server.Config{}), addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop drains the server, which checkpoints and closes its database,
// and waits for Serve to return.
func (s *served) stop() {
	s.srv.Shutdown(context.Background())
	<-s.done
}

func dialAll(addr string, n int) ([]*client.Conn, error) {
	var cs []*client.Conn
	for i := 0; i < n; i++ {
		c, err := client.Dial(addr)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*client.Conn) {
	for _, c := range cs {
		c.Close()
	}
}

// servingWorkload is a serving workload's inputs: the base points its
// system starts with, and the operation schedule. The first warm
// operations warm the system up: their results are checked, but they
// are not timed and the system's counters are read after them.
type servingWorkload struct {
	name    string
	g       probe.Grid
	base    []probe.Point
	ops     []wOp
	after   [][]int // what each operation waits for; nil: nothing
	warm    int
	rate    float64 // offered operations per second
	workers int     // client connections
}

// wWarmSeconds is the length of a serving workload's warm-up in
// seconds of schedule. A freshly started system's first half second
// has bursts of slow operations that a running one does not.
const wWarmSeconds = 2

// wOpCount is how many operations a serving workload issues at rate
// for a run of seconds: the warm-up, then the measured schedule.
func wOpCount(rate, seconds int) int { return rate * (wWarmSeconds + seconds) }

// runServing runs a serving workload: an untraced pass against a fresh
// system in a child process, checked against the oracle, and, for a
// traced run, a traced pass over the same schedule against another.
func runServing(cfg config, w *servingWorkload) (*report, error) {
	due := evenSchedule(len(w.ops), w.rate)
	if cfg.closed {
		due = make([]time.Duration, len(w.ops))
	}
	pass := func(traced bool) (*wPass, *oracle, error) {
		p, err := wRun(cfg, w, due, traced)
		if err != nil {
			return nil, nil, err
		}
		orc := newOracle(w.g, w.base)
		wRecordWrites(orc, w.ops, p.outs, p.tm)
		return p, orc, nil
	}
	p, orc, err := pass(false)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	rep.add(wCheck(orc, w.ops, p.outs, p.tm))
	ops := w.ops[w.warm:] // the measured operations
	if rep.e2e, err = wEndToEnd(ops, p.measured(w.warm), w.g); err != nil || !cfg.trace {
		return rep, err
	}
	var perr error
	layer := wUntracedLayers(ops, p.measured(w.warm), w.g, &perr)

	tp, orc, err := pass(true)
	if err != nil {
		return nil, err
	}
	rep.add(wCheck(orc, w.ops, tp.outs, tp.tm))
	tp = tp.measured(w.warm)
	tall, _, _ := wLatencies(ops, tp.tm)
	layer["trace.overhead_frac"] = tall.pct(0.50, &perr)/rep.e2e["p50_ms"] - 1

	// The library in this process, holding the base points, replays the
	// reads for the wire-vs-library comparison.
	lib, err := probe.Open(w.g, probe.WithBulkLoad(w.base))
	if err != nil {
		return nil, err
	}
	defer lib.Close()
	var log spanLog
	wTracedLayers(ops, tp, &log, layer, lib.Index().Tree().LeafCapacity(), &perr)
	selfMetrics(&log, len(ops), layer)
	if err := writeSpans(cfg, &log); err != nil {
		return nil, err
	}
	if err := wLibrary(ops, lib, layer, &perr); err != nil {
		return nil, fmt.Errorf("library replay: %w", err)
	}

	// Points the statements' search boxes held, per row returned.
	var examined, returned float64
	for i := range ops {
		if k := ops[i].kind; (k == wRows || k == wAgg) && tp.outs[i].err == nil {
			rd := window{int64(tp.tm[i].sent), int64(tp.tm[i].done)}
			orc.each(ops[i].box, func(ps *pstate) {
				if ps.state(rd) >= 0 {
					examined++
				}
			})
			returned += float64(len(tp.outs[i].rows))
		}
	}
	layer["query.rows_examined_per_returned"] = ratio(examined, returned)
	zeroLayers(layer)
	rep.layer = layer
	return rep, perr
}

// wPass is what one pass over a serving workload's schedule measured:
// each operation's outcome and timing, the measured schedule's wall
// time, and the system's counters after the warm-up and at the end (s1
// is the final snapshot).
type wPass struct {
	outs   []wOut
	tm     []opTiming
	wall   time.Duration
	setup  float64
	s0, s1 sysSnap
}

// measured is the pass without its first warm operations.
func (p *wPass) measured(warm int) *wPass {
	m := *p
	m.outs, m.tm = p.outs[warm:], p.tm[warm:]
	return &m
}

// wRun starts the workload's system in a child process, drives one
// pass of the schedule against it, traced or not, and ends it.
func wRun(cfg config, w *servingWorkload, due []time.Duration, traced bool) (*wPass, error) {
	sys, err := startSystem(w.name, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer sys.stop()
	conns, err := dialAll(sys.ready.Addr, w.workers)
	if err != nil {
		return nil, err
	}
	defer closeAll(conns)
	for _, c := range conns {
		c.SetTrace(traced)
	}
	p := &wPass{outs: make([]wOut, len(w.ops)), setup: sys.ready.SetupS}
	// The harness collects no garbage while the schedule runs: the
	// results it keeps for the oracle would make each collection mark a
	// growing heap, taking processor time from the system and stalling
	// the client connections, a delay the system did not cause. A pass
	// allocates about 100 MB here; the limit is a safety net.
	freeGarbage()
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(1 << 30))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	clk := wallClock{start: time.Now()}
	// run issues operations from..to-1 on the one clock of the pass.
	run := func(from, to int) []opTiming {
		return runOpenLoop(clk, due[from:to], subDeps(w.after, from, to), len(conns), func(c, i int) {
			wExec(ctx, conns[c], &w.ops[from+i], &p.outs[from+i], clk.now, traced)
		})
	}
	p.tm = run(0, w.warm)
	if p.s0, err = sys.snap(); err != nil {
		return nil, err
	}
	t0 := clk.now()
	p.tm = append(p.tm, run(w.warm, len(w.ops))...)
	p.wall = clk.now() - t0
	closeAll(conns)
	if p.s1, err = sys.end(); err != nil {
		return nil, err
	}
	return p, nil
}

// wLatencies splits a pass's latencies by class.
func wLatencies(ops []wOp, tm []opTiming) (all, reads, writes samples) {
	for i := range ops {
		l := tm[i].latency()
		all.add(l)
		switch {
		case ops[i].kind.read():
			reads.add(l)
		case ops[i].kind.write():
			writes.add(l)
		}
	}
	return all, reads, writes
}

// wEndToEnd computes a serving workload's end-to-end metrics.
func wEndToEnd(ops []wOp, p *wPass, g probe.Grid) (map[string]float64, error) {
	var perr error
	all, reads, _ := wLatencies(ops, p.tm)
	m := map[string]float64{
		"setup_s":     p.setup,
		"ops_per_s":   float64(len(ops)) / p.wall.Seconds(),
		"p50_ms":      all.pct(0.50, &perr),
		"p99_ms":      all.pct(0.99, &perr),
		"read_p99_ms": reads.pct(0.99, &perr),
		"peak_rss_mb": p.s1.PeakRSSMB,
		"space_amp":   float64(p.s1.StoreBytes) / float64(p.s1.LivePoints*pointBytes(g)),
	}
	return m, perr
}

// wUntracedLayers computes the per-layer figures the untraced pass
// measures: write and commit tails, conflicts, the MVCC backlog, the
// buffer pool, the WAL and checkpoints, the system process's Go
// runtime cost and the generator's lag.
func wUntracedLayers(ops []wOp, p *wPass, g probe.Grid, perr *error) map[string]float64 {
	var commits, ckpts, late samples
	var userBytes int64
	conflicts, commitTries := 0, 0
	for i := range ops {
		out := &p.outs[i]
		late.add(p.tm[i].late())
		switch ops[i].kind {
		case wInsert, wDelete, wTx:
			userBytes += int64(len(ops[i].pts) * pointBytes(g))
			commitTries++
			if isConflict(out.err) {
				conflicts++
			} else if out.err == nil {
				commits.add(out.commit)
			}
		case wCheckpoint:
			ckpts.add(p.tm[i].service())
		}
	}
	_, _, writes := wLatencies(ops, p.tm)
	allocs, bytes, gcFrac := p.s0.goCost().perOp(p.s1.goCost(), len(ops))
	n := float64(len(ops))
	s0, s1 := &p.s0, &p.s1
	return map[string]float64{
		"write_p99_ms":                  writes.pctOrZero(0.99, perr),
		"tx.commit_p99_ms":              commits.pctOrZero(0.99, perr),
		"tx.conflict_frac":              ratio(float64(conflicts), float64(commitTries)),
		"mvcc.gc_pending_pages_max":     float64(s1.GCPendingMax),
		"disk.pool_hit_rate":            ratio(float64(s1.PoolHits-s0.PoolHits), float64(s1.PoolGets-s0.PoolGets)),
		"disk.phys_reads_per_query":     float64(s1.PhysReads-s0.PhysReads) / n,
		"disk.pool_evictions_per_query": float64(s1.PoolEvictions-s0.PoolEvictions) / n,
		"disk.wal_bytes_per_user_byte":  ratio(float64(s1.WALBytes-s0.WALBytes), float64(userBytes)),
		"disk.checkpoint_p50_ms":        ckpts.pctOrZero(0.50, perr),
		"disk.wal_syncs_per_checkpoint": ratio(float64(s1.WALSyncs-s0.WALSyncs), float64(s1.Checkpoints-s0.Checkpoints)),
		"go.allocs_per_op":              allocs,
		"go.alloc_bytes_per_op":         bytes,
		"go.gc_cpu_frac":                gcFrac,
		"gen.late_p99_ms":               late.pct(0.99, perr),
	}
}

// wTracedLayers reads the traced pass: each request's DONE timing tail
// and span tree give the server phases, the client residual, the
// router's fan-out and merge, and the engine counters. Spans go to log,
// one root per operation. Behind a router, the server phases are the
// shards' own, grafted into the router's tree.
func wTracedLayers(ops []wOp, tp *wPass, log *spanLog, layer map[string]float64, leafCap int, perr *error) {
	var residual, queue, plan, exec, stream samples
	var reads, routed, shards, fanout, merge, joins float64
	sum := make(map[probe.CounterID]float64)
	for i := range ops {
		out := &tp.outs[i]
		// The root spans the operation's latency; its self time is the
		// wait for a free connection or for an operation it depends on.
		root := log.add(i, -1, "wait."+wKindNames[ops[i].kind], "client.wait", tp.tm[i].latency())
		root = log.add(i, root, "client."+wKindNames[ops[i].kind], "client", tp.tm[i].service())
		for _, rq := range out.reqs {
			parent := root
			if len(out.reqs) > 1 {
				parent = log.add(i, root, "client."+rq.name, "client", rq.service)
			}
			if rq.timing.Total > 0 {
				residual.add(rq.service - rq.timing.Total)
			}
			fan := fanoutOf(rq.tree)
			if len(fan) == 0 {
				log.addServer(i, parent, rq.timing, rq.tree)
				phases(rq.timing, &queue, &plan, &exec, &stream)
			} else {
				log.addTrace(i, parent, rq.tree)
				routed++
				var slowest time.Duration
				for _, f := range fan {
					slowest = max(slowest, f.Duration())
					tm, _, _ := phaseTiming(f)
					phases(tm, &queue, &plan, &exec, &stream)
				}
				shards += float64(len(fan))
				fanout += ms(slowest)
				for _, c := range rq.tree.Children() {
					if c.Name() == "merge" {
						merge += ms(c.Duration())
					}
				}
			}
			for _, c := range wCounters {
				sum[c] += float64(rq.tree.Total(c))
			}
		}
		switch ops[i].kind {
		case wJoin:
			joins++
		case wRange, wNearest, wRows, wAgg, wSQLJoin:
			reads++
		}
	}
	per := func(c probe.CounterID) float64 { return ratio(sum[c], reads) }
	layer["client.residual_p50_ms"] = residual.pct(0.50, perr)
	layer["server.queue_p99_ms"] = queue.pct(0.99, perr)
	layer["server.plan_p50_ms"] = plan.pct(0.50, perr)
	layer["server.exec_p50_ms"] = exec.pct(0.50, perr)
	layer["server.stream_p50_ms"] = stream.pct(0.50, perr)
	layer["router.shards_per_req"] = ratio(shards, routed)
	layer["router.fanout_ms_per_req"] = ratio(fanout, routed)
	layer["router.merge_ms_per_req"] = ratio(merge, routed)
	layer["core.data_pages_per_query"] = per(probe.CounterDataPages)
	layer["core.efficiency"] = ratio(sum[probe.CounterResults], sum[probe.CounterDataPages]*float64(leafCap))
	layer["core.seeks_per_query"] = per(probe.CounterSeeks)
	layer["core.results_per_query"] = per(probe.CounterResults)
	layer["core.join_merge_steps"] = ratio(sum[probe.CounterMergeSteps], joins)
	layer["core.join_distinct_per_raw"] = ratio(sum[probe.CounterDistinctPairs], sum[probe.CounterRawPairs])
	layer["decompose.elements_per_query"] = ratio(sum[probe.CounterElements]+sum[probe.CounterItemsLeft]+sum[probe.CounterItemsRight], reads+joins)
	layer["zorder.bigmin_skips_per_query"] = per(probe.CounterBigMinSkips)
	layer["btree.node_visits_per_query"] = per(probe.CounterNodeVisits)
	layer["btree.leaf_scans_per_query"] = per(probe.CounterLeafScans)
	layer["btree.distinct_leaf_frac"] = ratio(sum[probe.CounterDataPages], sum[probe.CounterLeafScans])
}

// wCounters are the engine counters the traced pass sums.
var wCounters = append([]probe.CounterID{probe.CounterMergeSteps, probe.CounterRawPairs,
	probe.CounterDistinctPairs, probe.CounterItemsLeft, probe.CounterItemsRight}, prCounters...)

func phases(tm client.Timing, queue, plan, exec, stream *samples) {
	queue.add(tm.Queue)
	plan.add(tm.Plan)
	exec.add(tm.Exec)
	stream.add(tm.Stream)
}

// fanoutOf returns the per-shard call spans of a router's tree.
func fanoutOf(t *probe.Trace) []*probe.Trace {
	var out []*probe.Trace
	for _, c := range t.Children() {
		if strings.HasPrefix(c.Name(), "fanout.") {
			out = append(out, c)
		}
	}
	return out
}

// wLibrary replays the workload's reads and statements on the library
// in process, against db: probe.read_p50_us is a range read's time
// without the wire, query.prepare_us a statement's parse and compile,
// decompose.box_us one operation's box decomposition.
func wLibrary(ops []wOp, db *probe.DB, layer map[string]float64, perr *error) error {
	var lib, prep, decomp samples
	g := db.Grid()
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case wRange:
			t0 := time.Now()
			if _, _, err := db.RangeSearch(op.box); err != nil {
				return err
			}
			lib.add(time.Since(t0))
			t0 = time.Now()
			probe.DecomposeBox(g, op.box)
			decomp.add(time.Since(t0))
		case wRows, wAgg, wSQLJoin:
			t0 := time.Now()
			if _, err := db.Prepare(op.sql); err != nil {
				return err
			}
			prep.add(time.Since(t0))
		case wJoin:
			t0 := time.Now()
			for _, rel := range [][]client.BoxItem{op.a, op.b} {
				for _, it := range rel {
					probe.DecomposeBox(g, probe.Box{Lo: it.Lo, Hi: it.Hi})
				}
			}
			decomp.add(time.Since(t0))
		}
	}
	layer["probe.read_p50_us"] = lib.pctOrZero(0.50, perr) * 1000
	layer["query.prepare_us"] = prep.pctOrZero(0.50, perr) * 1000
	layer["decompose.box_us"] = decomp.pctOrZero(0.50, perr) * 1000
	return nil
}
