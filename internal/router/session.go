package router

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"probe"
	"probe/client"
	"probe/internal/obs"
	"probe/internal/query"
	"probe/internal/relation"
	"probe/internal/wire"
)

// Cancellation causes on the front side, mirroring the server's:
// context.Cause distinguishes a client's CANCEL frame from the
// router's drain.
var errClientCancel = errors.New("router: cancelled by client")

// session is the router side of one front-side connection. It mirrors
// internal/server's session loop — a reader goroutine feeding frames,
// at most one request executing at a time in its own goroutine, CANCEL
// interrupting the in-flight request — so a wire client cannot tell it
// is talking to a cluster.
type session struct {
	r    *Router
	conn net.Conn

	// writeMu serializes response frames: the executor goroutine
	// streams batches while the session loop may emit protocol errors.
	writeMu sync.Mutex

	frames chan frameMsg
	minor  uint8

	// respDone flips true when the executor starts writing the
	// in-flight request's final frame. From that instant a conforming
	// client may already have the answer and send its next request
	// ahead of the executor's done signal — the session loop uses this
	// to wait out the bookkeeping gap instead of mis-reading the race
	// as a pipelining violation.
	respDone atomic.Bool
}

type frameMsg struct {
	typ     uint8
	payload []byte
}

func newSession(r *Router, conn net.Conn) *session {
	return &session{r: r, conn: conn, frames: make(chan frameMsg, 4)}
}

// send writes one response frame under the write mutex with the
// configured write deadline.
func (ss *session) send(typ uint8, payload []byte) error {
	ss.writeMu.Lock()
	defer ss.writeMu.Unlock()
	ss.conn.SetWriteDeadline(time.Now().Add(ss.r.cfg.WriteTimeout))
	return wire.WriteFrame(ss.conn, typ, payload)
}

func (ss *session) sendError(id uint32, code uint8, msg string) {
	ss.send(wire.MsgError, wire.ErrorMsg{ID: id, Code: code, Msg: msg}.Encode())
}

// peekID extracts the request id every request payload leads with.
func peekID(payload []byte) uint32 {
	if len(payload) < 4 {
		return 0
	}
	return binary.LittleEndian.Uint32(payload)
}

// run drives the session to completion; the caller closes the
// connection afterwards.
func (ss *session) run() {
	defer func() {
		ss.conn.Close()
		for range ss.frames {
			// Drain so the reader goroutine can exit.
		}
	}()

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

	var (
		reqDone   chan struct{}
		cancelReq context.CancelCauseFunc
		inflight  uint32
	)
	for {
		select {
		case f, ok := <-ss.frames:
			if !ok {
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
					ss.r.metrics.Int("router.cancelled").Add(1)
					cancelReq(errClientCancel)
				}
			case wire.MsgBegin, wire.MsgCommit, wire.MsgRollback:
				// Multi-statement transactions need a single snapshot and
				// write-set, which a scatter over independent shards does
				// not provide; reject loudly rather than fake it.
				ss.sendError(peekID(f.payload), wire.CodeBadRequest,
					"transactions are not supported through the router; connect to a shard directly")
			case wire.MsgRange, wire.MsgNearest, wire.MsgJoin, wire.MsgInsert,
				wire.MsgCheckpoint, wire.MsgExplain, wire.MsgStats,
				wire.MsgDelete, wire.MsgQuery:
				id := peekID(f.payload)
				if need := minorRequired(f.typ); need > 0 && ss.minor < need {
					ss.sendError(id, wire.CodeBadRequest,
						fmt.Sprintf("opcode 0x%02x requires protocol minor >= %d (client said %d)", f.typ, need, ss.minor))
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
				}
				if reqDone != nil {
					ss.sendError(id, wire.CodeBadRequest,
						fmt.Sprintf("request %d is still in flight on this connection", inflight))
					continue
				}
				if ss.r.isDraining() {
					ss.sendError(id, wire.CodeShuttingDown, "router is shutting down")
					continue
				}
				if !ss.r.beginRequest() {
					ss.sendError(id, wire.CodeOverloaded,
						fmt.Sprintf("router at its in-flight limit (%d); retry later", ss.r.cfg.MaxInflight))
					continue
				}
				ctx, cancel := context.WithCancelCause(ss.r.baseCtx)
				done := make(chan struct{})
				ss.respDone.Store(false)
				reqDone, cancelReq, inflight = done, cancel, id
				typ, payload := f.typ, f.payload
				go func() {
					defer close(done)
					defer ss.r.endRequest()
					ss.execute(ctx, typ, payload)
				}()
			default:
				ss.sendError(0, wire.CodeBadRequest,
					fmt.Sprintf("unexpected frame type 0x%02x", f.typ))
			}
		case <-reqDone:
			cancelReq(context.Canceled)
			reqDone, cancelReq = nil, nil
		}
	}
}

// minorRequired mirrors the server's opcode gating.
func minorRequired(typ uint8) uint8 {
	switch typ {
	case wire.MsgDelete:
		return 2
	case wire.MsgQuery:
		return 3
	}
	return 0
}

// handshake answers the client's Hello with the cluster grid the
// router learned at Start.
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
			fmt.Sprintf("protocol major version %d not supported (router speaks %d)", hello.Major, wire.VersionMajor))
		return false
	}
	ss.minor = hello.Minor
	g := ss.r.Grid()
	bits := make([]uint32, g.Dims())
	for i := range bits {
		bits[i] = uint32(g.BitsOf(i))
	}
	return ss.send(wire.MsgWelcome, wire.Welcome{
		Major: wire.VersionMajor, Minor: wire.VersionMinor, Bits: bits,
	}.Encode()) == nil
}

// request carries one request's identity and outcome through its
// executor goroutine. Traced requests additionally carry the
// distributed trace ID and the router-side request span the backend
// layer grafts shard subtrees under.
type request struct {
	id      uint32
	op      string
	start   time.Time
	errCode uint8
	settled bool // telemetry recorded (settle)

	flags uint8
	trace uint64
	span  *probe.Trace // non-nil iff traced
}

// traced reports whether the client set FlagTrace on this request.
func (rq *request) traced() bool { return rq.flags&wire.FlagTrace != 0 }

// setHeader records the decoded header's tracing tail. The router is
// the cluster's front door: a traced request arriving without a trace
// ID gets one minted here, and that single ID propagates to every
// backend call the request fans out to. For traced requests the
// router-side request span is created and planted in the returned
// context for the scatter-gather layer to graft under.
func (ss *session) setHeader(ctx context.Context, rq *request, h wire.Header) context.Context {
	rq.flags = h.Flags
	rq.trace = h.Trace
	if !rq.traced() {
		return ctx
	}
	if rq.trace == 0 {
		rq.trace = obs.NewTraceID()
	}
	rq.span = probe.NewTrace("router." + rq.op)
	return withTraceCtx(ctx, &traceCtx{id: rq.trace, span: rq.span})
}

func opName(typ uint8) string {
	switch typ {
	case wire.MsgRange:
		return "range"
	case wire.MsgNearest:
		return "nearest"
	case wire.MsgJoin:
		return "join"
	case wire.MsgInsert:
		return "insert"
	case wire.MsgCheckpoint:
		return "checkpoint"
	case wire.MsgExplain:
		return "explain"
	case wire.MsgStats:
		return "stats"
	case wire.MsgDelete:
		return "delete"
	case wire.MsgQuery:
		return "query"
	default:
		return "unknown"
	}
}

// execute runs one admitted request to completion; its handler
// records the request's telemetry (settle) before the terminal frame.
func (ss *session) execute(ctx context.Context, typ uint8, payload []byte) {
	ss.r.metrics.Int("router.requests").Add(1)
	rq := &request{id: peekID(payload), op: opName(typ), start: time.Now()}
	switch typ {
	case wire.MsgRange:
		ss.handleRange(ctx, rq, payload)
	case wire.MsgNearest:
		ss.handleNearest(ctx, rq, payload)
	case wire.MsgJoin:
		ss.handleJoin(ctx, rq, payload)
	case wire.MsgInsert:
		ss.handleInsert(ctx, rq, payload)
	case wire.MsgDelete:
		ss.handleDelete(ctx, rq, payload)
	case wire.MsgCheckpoint:
		ss.handleCheckpoint(ctx, rq, payload)
	case wire.MsgExplain:
		ss.handleExplain(ctx, rq, payload)
	case wire.MsgStats:
		ss.handleStats(ctx, rq, payload)
	case wire.MsgQuery:
		ss.handleQuery(ctx, rq, payload)
	}
	ss.settle(rq) // a no-op unless the request ended without a terminal frame
}

// settle records one request's telemetry: the latency histogram,
// the trace store entry for interesting requests (traced, slow,
// sampled), and the structured log line — every logged or stored
// request carries a trace ID, so router lines grep-correlate with the
// shard lines of the same request. As on the single-node server, the
// terminal frame is written only after settle, so a request's
// telemetry happens-before its reply. A request that ends without a
// terminal frame is settled when its handler returns; settling twice
// is a no-op.
func (ss *session) settle(rq *request) {
	if rq.settled {
		return
	}
	rq.settled = true
	rq.span.End()
	total := time.Since(rq.start)
	ss.r.metrics.Histogram("router.latency." + rq.op).Observe(int64(total))

	cfg := &ss.r.cfg
	status := "ok"
	if rq.errCode != 0 {
		status = wire.CodeString(rq.errCode)
	}
	seq := ss.r.reqSeq.Add(1)
	slow := cfg.SlowQuery < 0 || (cfg.SlowQuery > 0 && total >= cfg.SlowQuery)
	sampled := cfg.LogEvery > 0 && seq%uint64(cfg.LogEvery) == 0
	if rq.traced() || slow || sampled {
		if rq.trace == 0 {
			// Untraced but interesting (slow or sampled): mint an ID at
			// record time so the store entry and log line still carry a
			// grep-able trace ID.
			rq.trace = obs.NewTraceID()
		}
		kind := obs.TraceKindSampled
		switch {
		case slow:
			kind = obs.TraceKindSlow
		case rq.traced():
			kind = obs.TraceKindTraced
		}
		ss.r.traces.Add(obs.TraceRecord{
			TraceID: rq.trace, Op: rq.op, Start: rq.start, Dur: total,
			Status: status, Kind: kind, Root: rq.span,
		})
	}

	lg := cfg.Logger
	if lg == nil {
		return
	}
	args := []any{
		"op", rq.op,
		"id", rq.id,
		"remote", ss.conn.RemoteAddr().String(),
		"dur", total,
		"status", status,
	}
	if rq.trace != 0 {
		args = append(args, "trace_id", obs.TraceIDString(rq.trace))
	}
	if slow {
		lg.Warn("slow query", append(args, "trace", rq.span.Render(true))...)
		return
	}
	if sampled {
		lg.Info("request", args...)
	}
}

func withTimeout(ctx context.Context, ms uint32) (context.Context, context.CancelFunc) {
	if ms == 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
}

func (ss *session) reject(rq *request, msg string) {
	ss.endError(rq, wire.CodeBadRequest, msg)
}

// endError ends a request with a typed error frame, settling its
// metrics first.
func (ss *session) endError(rq *request, code uint8, msg string) {
	rq.errCode = code
	ss.settle(rq)
	ss.respDone.Store(true)
	ss.sendError(rq.id, code, msg)
}

// codeOf maps an execution error to its typed wire code. A shard the
// request needed with no live node becomes the UNAVAILABLE code; a
// shard's own typed answer (bad request, conflict...) passes through
// with its original code.
func codeOf(ctx context.Context, err error) uint8 {
	var se *client.ServerError
	switch {
	case errors.Is(err, ErrShardUnavailable):
		return wire.CodeUnavailable
	case errors.As(err, &se):
		return se.Code
	case errors.Is(err, context.DeadlineExceeded):
		return wire.CodeDeadline
	case errors.Is(err, context.Canceled):
		if context.Cause(ctx) == errDraining {
			return wire.CodeShuttingDown
		}
		return wire.CodeCanceled
	}
	return wire.CodeInternal
}

func (ss *session) failReq(ctx context.Context, rq *request, err error) {
	ss.endError(rq, codeOf(ctx, err), err.Error())
}

// sendDone ends a successful request. A traced data request first
// gets its grafted fan-out span tree — as a TRACE frame for a minor
// >= 4 client, the legacy rendered-TEXT form for older ones — then its
// DONE carries the router-side timing breakdown, mirroring the
// single-node server so a wire client cannot tell it is talking to a
// cluster.
func (ss *session) sendDone(rq *request, qs probe.QueryStats) {
	ss.settle(rq)
	ss.respDone.Store(true)
	if rq.traced() && rq.op != "explain" && rq.op != "stats" {
		if ss.minor >= 4 {
			tm := wire.TraceMsg{ID: rq.id, TraceID: rq.trace, Span: probe.EncodeTrace(rq.span)}
			if ss.send(wire.MsgTrace, tm.Encode()) != nil {
				return
			}
		} else if ss.send(wire.MsgText, wire.TextMsg{ID: rq.id, Text: rq.span.Render(true)}.Encode()) != nil {
			return
		}
	}
	dn := wire.Done{ID: rq.id, Stats: statsArray(qs)}
	if rq.traced() {
		// The router has no decode/plan phase worth separating; report
		// the whole residence time as exec (the grafted span tree holds
		// the real breakdown).
		total := uint64(time.Since(rq.start))
		t := make([]uint64, wire.NumTimings)
		t[wire.TimingExec] = total
		t[wire.TimingTotal] = total
		dn.Timings = t
	}
	ss.send(wire.MsgDone, dn.Encode())
}

// statsArray flattens QueryStats into the Done stats array, the same
// mapping the single-node server uses.
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
	ctx = ss.setHeader(ctx, rq, req.Header)
	ctx, stop := withTimeout(ctx, req.TimeoutMS)
	defer stop()

	dims := uint32(ss.r.Grid().Dims())
	batch := make([]wire.Point, 0, ss.r.cfg.BatchSize)
	var writeErr error
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		writeErr = ss.send(wire.MsgBatch, wire.Batch{
			ID: req.ID, Kind: wire.KindPoints, Dims: dims, Points: batch,
		}.Encode())
		batch = batch[:0]
		return writeErr == nil
	}
	qs, err := ss.r.RangeFunc(ctx, req.Lo, req.Hi, req.Strategy, func(p probe.Point) bool {
		batch = append(batch, wire.Point{ID: p.ID, Coords: p.Coords})
		if len(batch) == cap(batch) {
			return flush()
		}
		return true
	})
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
	ctx = ss.setHeader(ctx, rq, req.Header)
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
	nbs, qs, err := ss.r.Nearest(ctx, req.Q, int(req.M), metric)
	if err != nil {
		ss.failReq(ctx, rq, err)
		return
	}
	dims := uint32(ss.r.Grid().Dims())
	for off := 0; off < len(nbs); off += ss.r.cfg.BatchSize {
		end := min(off+ss.r.cfg.BatchSize, len(nbs))
		out := make([]wire.Neighbor, 0, end-off)
		for _, n := range nbs[off:end] {
			out = append(out, wire.Neighbor{
				Point: wire.Point{ID: n.Point.ID, Coords: n.Point.Coords},
				Dist:  n.Dist,
			})
		}
		if ss.send(wire.MsgBatch, wire.Batch{
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
	ctx = ss.setHeader(ctx, rq, req.Header)
	ctx, stop := withTimeout(ctx, req.TimeoutMS)
	defer stop()
	conv := func(items []wire.JoinItem) []client.BoxItem {
		out := make([]client.BoxItem, len(items))
		for i, it := range items {
			out[i] = client.BoxItem{ID: it.ID, Lo: it.Lo, Hi: it.Hi}
		}
		return out
	}
	pairs, qs, err := ss.r.Join(ctx, conv(req.A), conv(req.B), int(req.Workers))
	if err != nil {
		ss.failReq(ctx, rq, err)
		return
	}
	for off := 0; off < len(pairs); off += ss.r.cfg.BatchSize {
		end := min(off+ss.r.cfg.BatchSize, len(pairs))
		out := make([][2]uint64, 0, end-off)
		for _, p := range pairs[off:end] {
			out = append(out, [2]uint64{p.A, p.B})
		}
		if ss.send(wire.MsgBatch, wire.Batch{
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
	ctx = ss.setHeader(ctx, rq, req.Header)
	if int(req.Dims) != ss.r.Grid().Dims() {
		ss.reject(rq, fmt.Sprintf("points have %d dimensions, cluster has %d", req.Dims, ss.r.Grid().Dims()))
		return
	}
	pts := make([]probe.Point, len(req.Points))
	for i, p := range req.Points {
		pts[i] = probe.Point{ID: p.ID, Coords: p.Coords}
	}
	qs, err := ss.r.Insert(ctx, pts)
	if err != nil {
		ss.failReq(ctx, rq, err)
		return
	}
	qs.Results = len(pts)
	ss.sendDone(rq, qs)
}

func (ss *session) handleDelete(ctx context.Context, rq *request, payload []byte) {
	req, err := wire.DecodeDeleteReq(payload)
	if err != nil {
		ss.reject(rq, err.Error())
		return
	}
	ctx = ss.setHeader(ctx, rq, req.Header)
	if int(req.Dims) != ss.r.Grid().Dims() {
		ss.reject(rq, fmt.Sprintf("points have %d dimensions, cluster has %d", req.Dims, ss.r.Grid().Dims()))
		return
	}
	pts := make([]probe.Point, len(req.Points))
	for i, p := range req.Points {
		pts[i] = probe.Point{ID: p.ID, Coords: p.Coords}
	}
	qs, err := ss.r.Delete(ctx, pts)
	if err != nil {
		ss.failReq(ctx, rq, err)
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
	ctx = ss.setHeader(ctx, rq, req.Header)
	qs, err := ss.r.Checkpoint(ctx)
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
	ctx = ss.setHeader(ctx, rq, req.Header)
	text, err := ss.r.Explain(ctx, req.Lo, req.Hi)
	if err != nil {
		ss.failReq(ctx, rq, err)
		return
	}
	if ss.send(wire.MsgText, wire.TextMsg{ID: req.ID, Text: text}.Encode()) != nil {
		return
	}
	ss.sendDone(rq, probe.QueryStats{})
}

// handleStats snapshots the router's registry: fan-out histograms,
// shard/replica health gauges, request counters — "router." prefixed,
// sorted by name like the single-node server's STATS.
func (ss *session) handleStats(ctx context.Context, rq *request, payload []byte) {
	req, err := wire.DecodeSimpleReq(payload)
	if err != nil {
		ss.reject(rq, err.Error())
		return
	}
	ctx = ss.setHeader(ctx, rq, req.Header)
	_ = ctx
	if ss.minor >= 1 {
		m := ss.r.StatsMap()
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		kvs := make([]wire.KV, 0, len(names))
		for _, name := range names {
			kvs = append(kvs, wire.KV{Name: name, Value: m[name]})
		}
		if ss.send(wire.MsgStatsKV, wire.StatsKV{ID: req.ID, KVs: kvs}.Encode()) != nil {
			return
		}
	} else {
		if ss.send(wire.MsgText, wire.TextMsg{ID: req.ID, Text: ss.r.metrics.String()}.Encode()) != nil {
			return
		}
	}
	ss.sendDone(rq, probe.QueryStats{})
}

// handleQuery parses and compiles the statement router-side, then runs
// the plan over the cluster engine: base rows arrive through the
// z-merged scatter in single-node order, so every plan shape —
// streaming scans, aggregates, DISTINCT, GROUP BY, ORDER, LIMIT —
// produces exactly the rows a single node would.
func (ss *session) handleQuery(ctx context.Context, rq *request, payload []byte) {
	req, err := wire.DecodeQueryReq(payload)
	if err != nil {
		ss.reject(rq, err.Error())
		return
	}
	ctx = ss.setHeader(ctx, rq, req.Header)
	ctx, stop := withTimeout(ctx, req.TimeoutMS)
	defer stop()

	stmt, err := query.Parse(req.Text)
	if err != nil {
		ss.endError(rq, wire.CodeParse, err.Error())
		return
	}
	plan, err := query.Compile(ss.r.Grid(), stmt.Select)
	if err != nil {
		code := uint8(wire.CodePlan)
		var qe *query.Error
		if errors.As(err, &qe) && qe.Kind == query.KindParse {
			code = wire.CodeParse
		}
		ss.endError(rq, code, err.Error())
		return
	}
	eng := &clusterEngine{r: ss.r}

	if stmt.Explain {
		text := plan.ExplainText(eng)
		if ss.send(wire.MsgText, wire.TextMsg{ID: req.ID, Text: text}.Encode()) != nil {
			return
		}
		ss.sendDone(rq, probe.QueryStats{})
		return
	}

	cols := plan.Columns()
	wcols := make([]wire.SchemaCol, len(cols))
	types := make([]uint8, len(cols))
	for i, c := range cols {
		wcols[i] = wire.SchemaCol{Name: c.Name, Type: uint8(c.Type)}
		types[i] = uint8(c.Type)
	}
	if ss.send(wire.MsgSchema, wire.SchemaMsg{ID: req.ID, Cols: wcols}.Encode()) != nil {
		return
	}
	var writeErr, encodeErr error
	batch := make([][]wire.RowValue, 0, ss.r.cfg.BatchSize)
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		p, err := wire.RowsMsg{ID: req.ID, Types: types, Rows: batch}.Encode()
		if err != nil {
			encodeErr = err
			return false
		}
		if err := ss.send(wire.MsgRows, p); err != nil {
			writeErr = err
			return false
		}
		batch = batch[:0]
		return true
	}
	err = plan.Run(ctx, eng, func(row relation.Tuple) bool {
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
		return
	case err != nil:
		ss.failReq(ctx, rq, err)
		return
	}
	if !flush() {
		return
	}
	ss.sendDone(rq, eng.stats)
}
