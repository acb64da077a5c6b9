package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"probe"
	"probe/internal/core"
	"probe/internal/decompose"
	"probe/internal/geom"
	"probe/internal/wire"
)

// session is the server side of one connection: a reader goroutine
// feeding frames to the session loop, which executes at most one
// request at a time in its own goroutine while staying responsive to
// CANCEL frames.
type session struct {
	srv  *Server
	conn net.Conn

	// writeMu serializes response frames: the executor goroutine
	// streams batches while the session loop may emit protocol errors.
	writeMu sync.Mutex

	frames chan frameMsg

	// minor is the client's protocol minor from its Hello; it gates
	// the minor-1 response forms (STATSKV instead of TEXT) and the
	// minor-2 transaction opcodes.
	minor uint8

	// tx is the session's open transaction, nil outside BEGIN…COMMIT/
	// ROLLBACK. The executor goroutine uses it during a request; the
	// session loop rolls it back on idle timeout or disconnect, which
	// it only does while no request is in flight — txMu guards the
	// pointer itself so those handoffs are race-free.
	// txAborted latches when the server kills the transaction (idle
	// timeout) so later statements fail loudly instead of silently
	// running in auto-commit mode; BEGIN, COMMIT, and ROLLBACK clear
	// it.
	txMu      sync.Mutex
	tx        *probe.Tx
	txAborted bool

	// root is the session's span: every request's work is attributed
	// to a child operator span, so the session trace is the full
	// I/O-attributed history of the connection. Folded into the
	// server's metrics registry when the session ends.
	root *probe.Trace

	// respDone flips true when the executor starts writing the
	// in-flight request's final frame. From that instant a conforming
	// client may already have the answer and pipeline its next request
	// ahead of the executor's done signal — the session loop uses this
	// to wait out the bookkeeping gap instead of mis-reading the race
	// as a pipelining violation.
	respDone atomic.Bool
}

type frameMsg struct {
	typ     uint8
	payload []byte
}

func newSession(srv *Server, conn net.Conn) *session {
	return &session{
		srv:    srv,
		conn:   conn,
		frames: make(chan frameMsg, 4),
		root:   probe.NewTrace("session"),
	}
}

// currentTx returns the session's open transaction, nil if none.
func (ss *session) currentTx() *probe.Tx {
	ss.txMu.Lock()
	defer ss.txMu.Unlock()
	return ss.tx
}

// txState returns the open transaction and whether a previous one was
// aborted by the server without the client's acknowledgement.
func (ss *session) txState() (*probe.Tx, bool) {
	ss.txMu.Lock()
	defer ss.txMu.Unlock()
	return ss.tx, ss.txAborted
}

// setTx installs a freshly begun transaction, clearing any stale
// aborted latch.
func (ss *session) setTx(tx *probe.Tx) {
	ss.txMu.Lock()
	ss.tx = tx
	ss.txAborted = false
	ss.txMu.Unlock()
}

// latchAborted records a server-side abort the client has not seen.
func (ss *session) latchAborted() {
	ss.txMu.Lock()
	ss.txAborted = true
	ss.txMu.Unlock()
}

// ackAborted clears the aborted latch, reporting whether it was set —
// COMMIT and ROLLBACK acknowledge the abort.
func (ss *session) ackAborted() bool {
	ss.txMu.Lock()
	defer ss.txMu.Unlock()
	was := ss.txAborted
	ss.txAborted = false
	return was
}

// takeTx detaches the open transaction from the session, nil if none.
// The caller owns ending it (and calling srv.txEnded).
func (ss *session) takeTx() *probe.Tx {
	ss.txMu.Lock()
	defer ss.txMu.Unlock()
	tx := ss.tx
	ss.tx = nil
	return tx
}

// abortTx rolls back the open transaction, if any — the disconnect,
// idle-timeout, and session-exit path.
func (ss *session) abortTx() {
	if tx := ss.takeTx(); tx != nil {
		tx.Rollback()
		ss.srv.txEnded()
	}
}

// send writes one response frame under the write mutex with the
// configured write deadline.
func (ss *session) send(typ uint8, payload []byte) error {
	ss.writeMu.Lock()
	defer ss.writeMu.Unlock()
	ss.conn.SetWriteDeadline(time.Now().Add(ss.srv.cfg.WriteTimeout))
	return wire.WriteFrame(ss.conn, typ, payload)
}

func (ss *session) sendError(id uint32, code uint8, msg string) {
	ss.send(wire.MsgError, wire.ErrorMsg{ID: id, Code: code, Msg: msg}.Encode())
}

// peekID extracts the request id every request payload leads with, so
// even a request rejected before decoding gets a correctly-addressed
// error frame.
func peekID(payload []byte) uint32 {
	if len(payload) < 4 {
		return 0
	}
	return binary.LittleEndian.Uint32(payload)
}

// run drives the session to completion. The caller closes the
// connection afterwards; run additionally closes it on its own exit
// paths so the reader goroutine always unblocks.
func (ss *session) run() {
	defer func() {
		ss.abortTx() // a transaction never outlives its connection
		ss.conn.Close()
		for range ss.frames {
			// Drain so the reader goroutine can exit.
		}
		ss.root.End()
		ss.srv.metrics.AddSpan("session", ss.root)
	}()

	// Reader goroutine: frames in, closed on any read error.
	go func() {
		defer close(ss.frames)
		for {
			typ, payload, err := wire.ReadFrame(ss.conn)
			if err != nil {
				return
			}
			ss.frames <- frameMsg{typ: typ, payload: payload}
		}
	}()

	if !ss.handshake() {
		return
	}

	// txTimer enforces Config.TxIdleTimeout: it is (re-)armed whenever
	// a request finishes with a transaction open, and fires only while
	// no request is in flight — the executor goroutine owns the
	// transaction during a request, so the loop never ends it mid-use.
	txTimer := time.NewTimer(ss.srv.cfg.TxIdleTimeout)
	if !txTimer.Stop() {
		<-txTimer.C
	}
	defer txTimer.Stop()
	armTxTimer := func() {
		if !txTimer.Stop() {
			select {
			case <-txTimer.C:
			default:
			}
		}
		if ss.currentTx() != nil {
			txTimer.Reset(ss.srv.cfg.TxIdleTimeout)
		}
	}

	var (
		reqDone   chan struct{} // non-nil while a request executes
		cancelReq context.CancelCauseFunc
		inflight  uint32 // id of the executing request
	)
	for {
		select {
		case f, ok := <-ss.frames:
			if !ok {
				// Connection gone. Cancel any running request — its
				// results have nowhere to go — and wait it out so the
				// admission slot is released before the session ends.
				if reqDone != nil {
					cancelReq(errClientCancel)
					<-reqDone
					cancelReq(context.Canceled)
				}
				return
			}
			switch f.typ {
			case wire.MsgCancel:
				c, err := wire.DecodeCancel(f.payload)
				if err != nil {
					ss.sendError(0, wire.CodeBadRequest, "malformed cancel")
					continue
				}
				if reqDone != nil && c.ID == inflight {
					ss.srv.metrics.Int("server.cancelled").Add(1)
					cancelReq(errClientCancel)
				}
			case wire.MsgRange, wire.MsgNearest, wire.MsgJoin, wire.MsgInsert,
				wire.MsgCheckpoint, wire.MsgExplain, wire.MsgStats,
				wire.MsgDelete, wire.MsgBegin, wire.MsgCommit, wire.MsgRollback,
				wire.MsgQuery:
				recv := time.Now()
				id := peekID(f.payload)
				if need := minorRequired(f.typ); need > 0 && ss.minor < need {
					ss.sendError(id, wire.CodeBadRequest,
						fmt.Sprintf("opcode 0x%02x requires protocol minor >= %d (client said %d)", f.typ, need, ss.minor))
					continue
				}
				if ss.srv.cfg.ReadOnly && mutatingOp(f.typ) {
					ss.sendError(id, wire.CodeReadOnly,
						"server is read-only (replica); send writes to the primary")
					continue
				}
				if reqDone != nil && ss.respDone.Load() {
					// The previous request's final frame is already on the
					// wire — only executor bookkeeping separates us from its
					// done signal, and the client was entitled to send this
					// request the moment it read that frame. Wait the signal
					// out rather than mis-typing a conforming client as a
					// pipeliner.
					<-reqDone
					cancelReq(context.Canceled)
					reqDone, cancelReq = nil, nil
					armTxTimer()
				}
				if reqDone != nil {
					ss.sendError(id, wire.CodeBadRequest,
						fmt.Sprintf("request %d is still in flight on this connection", inflight))
					continue
				}
				// Drain: reject new work, but a session holding an open
				// transaction may keep going through the grace window so
				// it can finish and COMMIT (or ROLLBACK) cleanly.
				if ss.srv.isDraining() && ss.currentTx() == nil {
					ss.sendError(id, wire.CodeShuttingDown, "server is shutting down")
					continue
				}
				if !ss.srv.beginRequest() {
					ss.sendError(id, wire.CodeOverloaded,
						fmt.Sprintf("server at its in-flight limit (%d); retry later", ss.srv.cfg.MaxInflight))
					continue
				}
				ctx, cancel := context.WithCancelCause(ss.srv.baseCtx)
				done := make(chan struct{})
				ss.respDone.Store(false)
				reqDone, cancelReq, inflight = done, cancel, id
				typ, payload := f.typ, f.payload
				go func() {
					defer close(done)
					defer ss.srv.endRequest()
					ss.execute(ctx, typ, payload, recv)
				}()
			default:
				ss.sendError(0, wire.CodeBadRequest,
					fmt.Sprintf("unexpected frame type 0x%02x", f.typ))
			}
		case <-reqDone:
			cancelReq(context.Canceled) // release the context's resources
			reqDone, cancelReq = nil, nil
			armTxTimer()
		case <-txTimer.C:
			if reqDone != nil {
				// A request slipped in; re-check after it finishes.
				armTxTimer()
				continue
			}
			if tx := ss.takeTx(); tx != nil {
				tx.Rollback()
				ss.srv.txEnded()
				ss.latchAborted()
				ss.srv.metrics.Int("server.tx_idle_aborts").Add(1)
			}
		}
	}
}

// minorRequired returns the minimum protocol minor an opcode needs (0
// when every 1.x client may send it). Gated opcodes from an older
// client are rejected before their payload is decoded.
func minorRequired(typ uint8) uint8 {
	switch typ {
	case wire.MsgDelete, wire.MsgBegin, wire.MsgCommit, wire.MsgRollback:
		return 2
	case wire.MsgQuery:
		return 3
	}
	return 0
}

// mutatingOp reports opcodes a read-only (replica) server refuses:
// anything that writes the database or opens a transaction that
// could. QUERY is read-only by construction (SELECT only).
func mutatingOp(typ uint8) bool {
	switch typ {
	case wire.MsgInsert, wire.MsgDelete, wire.MsgCheckpoint, wire.MsgBegin:
		return true
	}
	return false
}

// handshake expects the client's Hello as the first frame and answers
// Welcome with the grid shape; a major-version mismatch gets a typed
// error and closes the session.
func (ss *session) handshake() bool {
	f, ok := <-ss.frames
	if !ok {
		return false
	}
	if f.typ != wire.MsgHello {
		ss.sendError(0, wire.CodeBadRequest, "expected HELLO")
		return false
	}
	hello, err := wire.DecodeHello(f.payload)
	if err != nil {
		ss.sendError(0, wire.CodeBadRequest, err.Error())
		return false
	}
	if hello.Major != wire.VersionMajor {
		ss.sendError(0, wire.CodeVersion,
			fmt.Sprintf("protocol major version %d not supported (server speaks %d)", hello.Major, wire.VersionMajor))
		return false
	}
	ss.minor = hello.Minor
	g := ss.srv.database().Grid()
	bits := make([]uint32, g.Dims())
	for i := range bits {
		bits[i] = uint32(g.BitsOf(i))
	}
	return ss.send(wire.MsgWelcome, wire.Welcome{
		Major: wire.VersionMajor, Minor: wire.VersionMinor, Bits: bits,
	}.Encode()) == nil
}

// execute runs one admitted request to completion: its handler
// records the request's telemetry (settle) and then sends its Done or
// Error frame. It runs in its own goroutine; recv is when the session loop
// dequeued the frame, the anchor of the timing breakdown.
func (ss *session) execute(ctx context.Context, typ uint8, payload []byte, recv time.Time) {
	ss.srv.metrics.Int("server.requests").Add(1)
	rq := &request{
		id:    peekID(payload),
		op:    opName(typ),
		recv:  recv,
		start: time.Now(),
		span:  ss.root.Child(opName(typ)),
	}
	switch typ {
	case wire.MsgRange:
		ss.handleRange(ctx, rq, payload)
	case wire.MsgNearest:
		ss.handleNearest(ctx, rq, payload)
	case wire.MsgJoin:
		ss.handleJoin(ctx, rq, payload)
	case wire.MsgInsert:
		ss.handleInsert(ctx, rq, payload)
	case wire.MsgCheckpoint:
		ss.handleCheckpoint(ctx, rq, payload)
	case wire.MsgExplain:
		ss.handleExplain(ctx, rq, payload)
	case wire.MsgStats:
		ss.handleStats(ctx, rq, payload)
	case wire.MsgDelete:
		ss.handleDelete(ctx, rq, payload)
	case wire.MsgBegin:
		ss.handleBegin(ctx, rq, payload)
	case wire.MsgCommit:
		ss.handleCommit(ctx, rq, payload)
	case wire.MsgRollback:
		ss.handleRollback(ctx, rq, payload)
	case wire.MsgQuery:
		ss.handleQuery(ctx, rq, payload)
	}
	ss.settle(rq) // a no-op unless the request ended without a terminal frame
}

// withTimeout applies a request's timeout_ms to its context.
func withTimeout(ctx context.Context, ms uint32) (context.Context, context.CancelFunc) {
	if ms == 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
}

// strategyOf maps the wire strategy byte (0 = server default) to a
// core strategy.
func strategyOf(b uint8) (probe.Strategy, error) {
	switch b {
	case 0:
		return probe.MergeLazy, nil
	case 1:
		return probe.MergeDecomposed, nil
	case 2:
		return probe.MergeLazy, nil
	case 3:
		return probe.SkipBigMin, nil
	default:
		return 0, fmt.Errorf("unknown strategy %d", b)
	}
}

// boxOf validates wire bounds against the server's grid.
func (ss *session) boxOf(lo, hi []uint32) (probe.Box, error) {
	if len(lo) != ss.srv.database().Grid().Dims() {
		return probe.Box{}, fmt.Errorf("box has %d dimensions, database has %d",
			len(lo), ss.srv.database().Grid().Dims())
	}
	return probe.NewBox(lo, hi)
}

// statsArray flattens QueryStats into the Done stats array (see the
// wire.Stat* indices).
func statsArray(qs probe.QueryStats) []uint64 {
	a := make([]uint64, wire.NumStats)
	a[wire.StatDataPages] = uint64(qs.DataPages)
	a[wire.StatSeeks] = uint64(qs.Seeks)
	a[wire.StatElements] = uint64(qs.Elements)
	a[wire.StatResults] = uint64(qs.Results)
	a[wire.StatLeftItems] = uint64(qs.LeftItems)
	a[wire.StatRightItems] = uint64(qs.RightItems)
	a[wire.StatRawPairs] = uint64(qs.RawPairs)
	a[wire.StatDistinctPairs] = uint64(qs.DistinctPairs)
	a[wire.StatShards] = uint64(qs.Shards)
	a[wire.StatReplicatedItems] = uint64(qs.ReplicatedItems)
	a[wire.StatPoolGets] = qs.PoolGets
	a[wire.StatPoolHits] = qs.PoolHits
	a[wire.StatPoolMisses] = qs.PoolMisses
	a[wire.StatPhysReads] = qs.PhysReads
	a[wire.StatPhysWrites] = qs.PhysWrites
	a[wire.StatWALAppends] = qs.WALAppends
	a[wire.StatWALSyncs] = qs.WALSyncs
	return a
}

func (ss *session) handleRange(ctx context.Context, rq *request, payload []byte) {
	req, err := wire.DecodeRangeReq(payload)
	if err != nil {
		ss.reject(rq, err.Error())
		return
	}
	rq.setHeader(req.Header)
	strat, err := strategyOf(req.Strategy)
	if err != nil {
		ss.reject(rq, err.Error())
		return
	}
	box, err := ss.boxOf(req.Lo, req.Hi)
	if err != nil {
		ss.reject(rq, err.Error())
		return
	}
	ctx, stop := withTimeout(ctx, req.TimeoutMS)
	defer stop()
	rq.markPlanned()

	dims := uint32(ss.srv.database().Grid().Dims())
	batch := make([]wire.Point, 0, ss.srv.cfg.BatchSize)
	var writeErr error
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		writeErr = ss.sendTimed(rq, wire.MsgBatch, wire.Batch{
			ID: req.ID, Kind: wire.KindPoints, Dims: dims, Points: batch,
		}.Encode())
		batch = batch[:0]
		return writeErr == nil
	}
	each := func(p probe.Point) bool {
		batch = append(batch, wire.Point{ID: p.ID, Coords: p.Coords})
		if len(batch) == cap(batch) {
			return flush()
		}
		return true
	}
	var qs probe.QueryStats
	tx, aborted := ss.txState()
	if tx == nil && aborted {
		ss.failReq(ctx, rq, probe.ErrTxAborted)
		return
	}
	if tx != nil {
		// Inside the session's transaction: the search runs on the
		// pinned snapshot with the write-set overlaid.
		qs, err = tx.RangeSearchFunc(box, each,
			probe.WithContext(ctx), probe.WithStrategy(strat))
	} else {
		qs, err = ss.srv.database().RangeSearchFunc(box, each,
			rq.queryOpts(ctx, probe.WithStrategy(strat))...)
	}
	if writeErr != nil {
		return // connection is gone; nothing more to say
	}
	if err != nil {
		ss.failReq(ctx, rq, err)
		return
	}
	if !flush() {
		return
	}
	ss.sendDone(rq, qs)
}

func (ss *session) handleNearest(ctx context.Context, rq *request, payload []byte) {
	req, err := wire.DecodeNearestReq(payload)
	if err != nil {
		ss.reject(rq, err.Error())
		return
	}
	rq.setHeader(req.Header)
	if len(req.Q) != ss.srv.database().Grid().Dims() {
		ss.reject(rq, fmt.Sprintf("query point has %d dimensions, database has %d", len(req.Q), ss.srv.database().Grid().Dims()))
		return
	}
	var metric probe.Metric
	switch req.Metric {
	case 0:
		metric = probe.Chebyshev
	case 1:
		metric = probe.Euclidean
	default:
		ss.reject(rq, fmt.Sprintf("unknown metric %d", req.Metric))
		return
	}
	ctx, stop := withTimeout(ctx, req.TimeoutMS)
	defer stop()
	rq.markPlanned()

	var nbs []probe.Neighbor
	var qs probe.QueryStats
	tx, aborted := ss.txState()
	if tx == nil && aborted {
		ss.failReq(ctx, rq, probe.ErrTxAborted)
		return
	}
	if tx != nil {
		nbs, qs, err = tx.Nearest(req.Q, int(req.M), metric, probe.WithContext(ctx))
	} else {
		nbs, qs, err = ss.srv.database().Nearest(req.Q, int(req.M), metric, rq.queryOpts(ctx)...)
	}
	if err != nil {
		ss.failReq(ctx, rq, err)
		return
	}
	dims := uint32(ss.srv.database().Grid().Dims())
	for off := 0; off < len(nbs); off += ss.srv.cfg.BatchSize {
		end := min(off+ss.srv.cfg.BatchSize, len(nbs))
		out := make([]wire.Neighbor, 0, end-off)
		for _, n := range nbs[off:end] {
			out = append(out, wire.Neighbor{
				Point: wire.Point{ID: n.Point.ID, Coords: n.Point.Coords},
				Dist:  n.Dist,
			})
		}
		if ss.sendTimed(rq, wire.MsgBatch, wire.Batch{
			ID: req.ID, Kind: wire.KindNeighbors, Dims: dims, Neighbors: out,
		}.Encode()) != nil {
			return
		}
	}
	ss.sendDone(rq, qs)
}

func (ss *session) handleJoin(ctx context.Context, rq *request, payload []byte) {
	req, err := wire.DecodeJoinReq(payload)
	if err != nil {
		ss.reject(rq, err.Error())
		return
	}
	rq.setHeader(req.Header)
	ctx, stop := withTimeout(ctx, req.TimeoutMS)
	defer stop()

	g := ss.srv.database().Grid()
	decomposeRel := func(items []wire.JoinItem) ([]core.Item, error) {
		var out []core.Item
		for _, it := range items {
			box, err := geom.NewBox(it.Lo, it.Hi)
			if err != nil {
				return nil, err
			}
			if box.Dims() != g.Dims() {
				return nil, fmt.Errorf("join item %d has %d dimensions, database has %d", it.ID, box.Dims(), g.Dims())
			}
			for _, el := range decompose.Box(g, box) {
				out = append(out, core.Item{Elem: el, ID: it.ID})
			}
		}
		core.SortItems(out)
		return out, nil
	}
	a, err := decomposeRel(req.A)
	if err != nil {
		ss.reject(rq, err.Error())
		return
	}
	b, err := decomposeRel(req.B)
	if err != nil {
		ss.reject(rq, err.Error())
		return
	}
	rq.markPlanned()
	opts := []probe.JoinOption{probe.WithContext(ctx), probe.WithTrace(rq.span)}
	if req.Workers > 0 {
		opts = append(opts, probe.WithWorkers(int(req.Workers)))
	}
	pairs, qs, err := probe.SpatialJoin(a, b, opts...)
	if err != nil {
		ss.failReq(ctx, rq, err)
		return
	}
	for off := 0; off < len(pairs); off += ss.srv.cfg.BatchSize {
		end := min(off+ss.srv.cfg.BatchSize, len(pairs))
		out := make([][2]uint64, 0, end-off)
		for _, p := range pairs[off:end] {
			out = append(out, [2]uint64{p.A, p.B})
		}
		if ss.sendTimed(rq, wire.MsgBatch, wire.Batch{
			ID: req.ID, Kind: wire.KindPairs, Pairs: out,
		}.Encode()) != nil {
			return
		}
	}
	ss.sendDone(rq, qs)
}

func (ss *session) handleInsert(ctx context.Context, rq *request, payload []byte) {
	req, err := wire.DecodeInsertReq(payload)
	if err != nil {
		ss.reject(rq, err.Error())
		return
	}
	rq.setHeader(req.Header)
	if int(req.Dims) != ss.srv.database().Grid().Dims() {
		ss.reject(rq, fmt.Sprintf("points have %d dimensions, database has %d", req.Dims, ss.srv.database().Grid().Dims()))
		return
	}
	if err := ctx.Err(); err != nil {
		ss.failReq(ctx, rq, err)
		return
	}
	pts := make([]probe.Point, len(req.Points))
	for i, p := range req.Points {
		pts[i] = probe.Point{ID: p.ID, Coords: p.Coords}
	}
	rq.markPlanned()
	// Inserts run to completion once started: a half-applied batch is
	// worse than a late cancel, so only the pre-flight context check
	// above honors cancellation. Inside a transaction the batch only
	// buffers — the shared index is untouched until COMMIT.
	tx, aborted := ss.txState()
	if tx == nil && aborted {
		ss.failReq(ctx, rq, probe.ErrTxAborted)
		return
	}
	if tx != nil {
		err = tx.InsertAll(pts)
	} else {
		err = ss.srv.database().InsertAll(pts)
	}
	if err != nil {
		ss.failReq(ctx, rq, err)
		return
	}
	ss.sendDone(rq, probe.QueryStats{Results: len(pts)})
}

// handleDelete removes a batch of points (minor 2). Points already
// absent are not an error; DONE's StatResults counts those actually
// removed. Inside a transaction the deletions buffer into the
// write-set against the transaction's own view.
func (ss *session) handleDelete(ctx context.Context, rq *request, payload []byte) {
	req, err := wire.DecodeDeleteReq(payload)
	if err != nil {
		ss.reject(rq, err.Error())
		return
	}
	rq.setHeader(req.Header)
	if int(req.Dims) != ss.srv.database().Grid().Dims() {
		ss.reject(rq, fmt.Sprintf("points have %d dimensions, database has %d", req.Dims, ss.srv.database().Grid().Dims()))
		return
	}
	if err := ctx.Err(); err != nil {
		ss.failReq(ctx, rq, err)
		return
	}
	rq.markPlanned()
	tx, aborted := ss.txState()
	if tx == nil && aborted {
		ss.failReq(ctx, rq, probe.ErrTxAborted)
		return
	}
	removed := 0
	for _, wp := range req.Points {
		p := probe.Point{ID: wp.ID, Coords: wp.Coords}
		var ok bool
		var err error
		if tx != nil {
			ok, err = tx.Delete(p)
		} else {
			ok, err = ss.srv.database().Delete(p)
		}
		if err != nil {
			ss.failReq(ctx, rq, err)
			return
		}
		if ok {
			removed++
		}
	}
	ss.sendDone(rq, probe.QueryStats{Results: removed})
}

// handleBegin opens the session's transaction. The transaction lives
// on the session's base context, not this request's, so it survives
// until COMMIT/ROLLBACK, disconnect, idle timeout, or the end of the
// drain grace window.
func (ss *session) handleBegin(ctx context.Context, rq *request, payload []byte) {
	req, err := wire.DecodeSimpleReq(payload)
	if err != nil {
		ss.reject(rq, err.Error())
		return
	}
	rq.setHeader(req.Header)
	if ss.currentTx() != nil {
		ss.reject(rq, "a transaction is already open on this connection")
		return
	}
	rq.markPlanned()
	tx, err := ss.srv.database().Begin(ss.srv.baseCtx)
	if err != nil {
		ss.failReq(ctx, rq, err)
		return
	}
	ss.setTx(tx)
	ss.srv.txBegan()
	ss.sendDone(rq, probe.QueryStats{})
}

// handleCommit commits the session's transaction. A lost
// first-committer-wins validation answers with the typed CONFLICT
// error; either way the transaction is over.
func (ss *session) handleCommit(ctx context.Context, rq *request, payload []byte) {
	req, err := wire.DecodeSimpleReq(payload)
	if err != nil {
		ss.reject(rq, err.Error())
		return
	}
	rq.setHeader(req.Header)
	tx := ss.takeTx()
	if tx == nil {
		if ss.ackAborted() {
			ss.failReq(ctx, rq, probe.ErrTxAborted)
		} else {
			ss.reject(rq, "no transaction is open on this connection")
		}
		return
	}
	rq.markPlanned()
	pending := tx.Pending()
	err = tx.Commit()
	ss.srv.txEnded()
	if err != nil {
		ss.failReq(ctx, rq, err)
		return
	}
	ss.sendDone(rq, probe.QueryStats{Results: pending})
}

// handleRollback discards the session's transaction.
func (ss *session) handleRollback(ctx context.Context, rq *request, payload []byte) {
	req, err := wire.DecodeSimpleReq(payload)
	if err != nil {
		ss.reject(rq, err.Error())
		return
	}
	rq.setHeader(req.Header)
	tx := ss.takeTx()
	if tx == nil {
		if ss.ackAborted() {
			// The server already rolled this transaction back (idle
			// timeout); the client's ROLLBACK lands on the same state
			// it asked for, so acknowledge rather than error.
			rq.markPlanned()
			ss.sendDone(rq, probe.QueryStats{})
		} else {
			ss.reject(rq, "no transaction is open on this connection")
		}
		return
	}
	rq.markPlanned()
	tx.Rollback()
	ss.srv.txEnded()
	ss.sendDone(rq, probe.QueryStats{})
}

// handleQuery runs one spatial SQL statement (minor 3). Outside a
// transaction the statement runs on one pinned snapshot of the newest
// committed index version; inside BEGIN…COMMIT it runs on the
// transaction's view — its snapshot plus its own buffered writes.
// SELECT answers with one SCHEMA frame, ROWS batches as the plan
// produces them, and DONE; EXPLAIN answers TEXT then DONE. Parse and
// plan failures come back as the typed PARSE/PLAN error codes, and a
// mid-stream cancel stops a streamable scan within about one page
// read.
func (ss *session) handleQuery(ctx context.Context, rq *request, payload []byte) {
	req, err := wire.DecodeQueryReq(payload)
	if err != nil {
		ss.reject(rq, err.Error())
		return
	}
	rq.setHeader(req.Header)
	ctx, stop := withTimeout(ctx, req.TimeoutMS)
	defer stop()

	tx, aborted := ss.txState()
	if tx == nil && aborted {
		ss.failReq(ctx, rq, probe.ErrTxAborted)
		return
	}
	var stmt *probe.Stmt
	if tx != nil {
		stmt, err = tx.Prepare(req.Text)
	} else {
		stmt, err = ss.srv.database().Prepare(req.Text)
	}
	if err != nil {
		var qe *probe.QueryError
		if errors.As(err, &qe) {
			code := uint8(wire.CodeParse)
			if qe.Kind == probe.QueryPlanError {
				code = wire.CodePlan
			}
			ss.endError(rq, code, err.Error())
			return
		}
		ss.failReq(ctx, rq, err)
		return
	}
	rq.markPlanned()

	if stmt.IsExplain() {
		text, err := stmt.ExplainText(ctx)
		if err != nil {
			ss.failReq(ctx, rq, err)
			return
		}
		if ss.sendTimed(rq, wire.MsgText, wire.TextMsg{ID: req.ID, Text: text}.Encode()) != nil {
			return
		}
		ss.sendDone(rq, probe.QueryStats{})
		return
	}

	cols := stmt.Columns()
	wcols := make([]wire.SchemaCol, len(cols))
	types := make([]uint8, len(cols))
	for i, c := range cols {
		wcols[i] = wire.SchemaCol{Name: c.Name, Type: uint8(c.Type)}
		types[i] = uint8(c.Type)
	}
	if ss.sendTimed(rq, wire.MsgSchema, wire.SchemaMsg{ID: req.ID, Cols: wcols}.Encode()) != nil {
		return
	}
	var writeErr, encodeErr error
	batch := make([][]wire.RowValue, 0, ss.srv.cfg.BatchSize)
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		p, err := wire.RowsMsg{ID: req.ID, Types: types, Rows: batch}.Encode()
		if err != nil {
			encodeErr = err
			return false
		}
		if err := ss.sendTimed(rq, wire.MsgRows, p); err != nil {
			writeErr = err
			return false
		}
		batch = batch[:0]
		return true
	}
	qs, err := stmt.Run(ctx, func(row probe.QueryRow) bool {
		vals := make([]wire.RowValue, len(row))
		for i, v := range row {
			vals[i] = wire.RowValue(v)
		}
		batch = append(batch, vals)
		if len(batch) == cap(batch) {
			return flush()
		}
		return true
	})
	switch {
	case encodeErr != nil:
		ss.failReq(ctx, rq, encodeErr)
		return
	case writeErr != nil:
		return // connection is gone; nothing more to say
	case err != nil:
		ss.failReq(ctx, rq, err)
		return
	}
	if !flush() {
		return
	}
	ss.sendDone(rq, qs)
}

func (ss *session) handleCheckpoint(ctx context.Context, rq *request, payload []byte) {
	req, err := wire.DecodeSimpleReq(payload)
	if err != nil {
		ss.reject(rq, err.Error())
		return
	}
	rq.setHeader(req.Header)
	rq.markPlanned()
	qs, err := ss.srv.database().Checkpoint(probe.WithTrace(rq.span))
	if err != nil {
		ss.failReq(ctx, rq, err)
		return
	}
	ss.sendDone(rq, qs)
}

func (ss *session) handleExplain(ctx context.Context, rq *request, payload []byte) {
	req, err := wire.DecodeRangeReq(payload)
	if err != nil {
		ss.reject(rq, err.Error())
		return
	}
	rq.setHeader(req.Header)
	box, err := ss.boxOf(req.Lo, req.Hi)
	if err != nil {
		ss.reject(rq, err.Error())
		return
	}
	rq.markPlanned()
	plan, err := ss.srv.database().Explain(box)
	if err != nil {
		ss.failReq(ctx, rq, err)
		return
	}
	if ss.sendTimed(rq, wire.MsgText, wire.TextMsg{ID: req.ID, Text: plan}.Encode()) != nil {
		return
	}
	ss.sendDone(rq, probe.QueryStats{})
}

// handleStats snapshots the server's and the database's registries. A
// minor >= 1 client gets the structured STATSKV response — every
// metric flattened to a named int64 (histograms as .count/.p50/.p95/
// .p99/.max), "server."/"db." prefixed; a 1.0 client gets the legacy
// rendered-JSON TEXT blob.
func (ss *session) handleStats(ctx context.Context, rq *request, payload []byte) {
	req, err := wire.DecodeSimpleReq(payload)
	if err != nil {
		ss.reject(rq, err.Error())
		return
	}
	rq.setHeader(req.Header)
	rq.markPlanned()
	if ss.minor >= 1 {
		var kvs []wire.KV
		ss.srv.metrics.DoNumeric(func(name string, v int64) {
			kvs = append(kvs, wire.KV{Name: "server." + name, Value: v})
		})
		ss.srv.database().Metrics().DoNumeric(func(name string, v int64) {
			kvs = append(kvs, wire.KV{Name: "db." + name, Value: v})
		})
		if ss.sendTimed(rq, wire.MsgStatsKV, wire.StatsKV{ID: req.ID, KVs: kvs}.Encode()) != nil {
			return
		}
	} else {
		text := fmt.Sprintf("{\"server\": %s, \"db\": %s}",
			ss.srv.metrics.String(), ss.srv.database().Metrics().String())
		if ss.sendTimed(rq, wire.MsgText, wire.TextMsg{ID: req.ID, Text: text}.Encode()) != nil {
			return
		}
	}
	ss.sendDone(rq, probe.QueryStats{})
}
