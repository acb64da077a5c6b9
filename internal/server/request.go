package server

import (
	"context"
	"errors"
	"time"

	"probe"
	"probe/internal/obs"
	"probe/internal/wire"
)

// request carries one request's identity and instrumentation through
// its executor goroutine: the phase timestamps behind the wire timing
// breakdown, the operator span all engine work is attributed to, and
// the outcome for metrics and the structured log. It is owned by the
// single executor goroutine; nothing in it is shared.
type request struct {
	id    uint32
	op    string
	flags uint8

	// trace is the request's distributed trace ID (wire header tail,
	// minor 4). Zero means the client did not send one; setHeader mints
	// an ID for traced requests so this server acts as the trace's
	// front door, and settle mints one lazily for untraced requests
	// that turn out slow or sampled so their log lines and trace-store
	// records are still grep-correlatable.
	trace uint64

	// span is the request's operator span, a child of the session
	// span; handlers pass it to the engine via WithTrace so page reads
	// and operator timings hang off this one node.
	span *probe.Trace

	recv    time.Time // frame dequeued by the session loop
	start   time.Time // executor goroutine began (queue phase ends)
	planned time.Time // decode + validation done (zero if rejected there)

	// streamNs accumulates time spent writing result frames, so the
	// exec phase can be reported net of client backpressure even for
	// handlers that stream from inside the engine callback.
	streamNs int64

	qs      probe.QueryStats
	errCode uint8 // 0 = success; otherwise the wire error code sent
	settled bool  // telemetry recorded (settle)
}

// opName names a request opcode for metric names and log lines.
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
	case wire.MsgBegin:
		return "begin"
	case wire.MsgCommit:
		return "commit"
	case wire.MsgRollback:
		return "rollback"
	case wire.MsgQuery:
		return "query"
	default:
		return "unknown"
	}
}

// setHeader records the decoded wire header's instrumentation fields:
// the flags byte and the trace ID. A traced request arriving without
// an ID (an old client, or a coordinator that has not minted one) gets
// a fresh ID here — this server is then the trace's front door — so
// every traced request is grep-able by trace ID end to end.
func (rq *request) setHeader(h wire.Header) {
	rq.flags = h.Flags
	rq.trace = h.Trace
	if rq.traced() && rq.trace == 0 {
		rq.trace = obs.NewTraceID()
	}
}

// markPlanned seals the plan phase: decoding and validation are done,
// the engine call is next.
func (rq *request) markPlanned() { rq.planned = time.Now() }

// traced reports whether the client set FlagTrace on this request.
func (rq *request) traced() bool { return rq.flags&wire.FlagTrace != 0 }

// queryOpts assembles the engine options for a data request: the
// request context always, plus trace attribution only when the client
// set FlagTrace. An untraced request therefore takes the engine's
// snapshot read path — it runs against one pinned committed tree
// version without serializing on the database mutex, so reads on one
// connection do not stall behind a writer on another. A traced
// request serializes on the database mutex so its page-access
// attribution stays exact.
func (rq *request) queryOpts(ctx context.Context, extra ...probe.QueryOption) []probe.QueryOption {
	opts := append([]probe.QueryOption{probe.WithContext(ctx)}, extra...)
	if rq.traced() {
		opts = append(opts, probe.WithTrace(rq.span))
	}
	return opts
}

// timings builds the Done timing array (nanoseconds, wire.Timing*
// indices). Exec is derived as the remainder so it stays correct for
// handlers that stream from inside the engine call.
func (rq *request) timings() []uint64 {
	total := time.Since(rq.recv)
	queue := rq.start.Sub(rq.recv)
	var plan time.Duration
	if !rq.planned.IsZero() {
		plan = rq.planned.Sub(rq.start)
	}
	stream := time.Duration(rq.streamNs)
	exec := total - queue - plan - stream
	if exec < 0 {
		exec = 0
	}
	t := make([]uint64, wire.NumTimings)
	t[wire.TimingQueue] = uint64(queue)
	t[wire.TimingPlan] = uint64(plan)
	t[wire.TimingExec] = uint64(exec)
	t[wire.TimingStream] = uint64(stream)
	t[wire.TimingTotal] = uint64(total)
	return t
}

// sendTimed is send with the elapsed write time accounted to the
// request's stream phase.
func (ss *session) sendTimed(rq *request, typ uint8, payload []byte) error {
	t0 := time.Now()
	err := ss.send(typ, payload)
	rq.streamNs += int64(time.Since(t0))
	return err
}

// reject ends a request at validation: bad-request error frame plus
// the recorded outcome.
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

// codeOf maps an execution error to its typed wire code.
// context.Cause distinguishes a client cancel from the server's
// drain.
func codeOf(ctx context.Context, err error) uint8 {
	switch {
	case errors.Is(err, probe.ErrTxConflict):
		return wire.CodeConflict
	case errors.Is(err, probe.ErrTxAborted):
		return wire.CodeBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return wire.CodeDeadline
	case errors.Is(err, context.Canceled):
		if context.Cause(ctx) == errDraining {
			return wire.CodeShuttingDown
		}
		return wire.CodeCanceled
	case errors.Is(err, probe.ErrClosed):
		return wire.CodeShuttingDown
	}
	return wire.CodeInternal
}

// failReq ends a request at execution: typed error frame plus the
// recorded outcome.
func (ss *session) failReq(ctx context.Context, rq *request, err error) {
	ss.endError(rq, codeOf(ctx, err), err.Error())
}

// sendDone ends a successful request. A traced data request first
// gets its server-side span tree — as a TRACE frame (trace ID plus
// the canonical binary encoding) for a minor >= 4 client, or the
// legacy rendered-TEXT form for older ones; EXPLAIN and STATS keep
// their single TEXT body — then every traced request's DONE carries
// the per-phase timing breakdown.
func (ss *session) sendDone(rq *request, qs probe.QueryStats) {
	rq.qs = qs
	if !rq.traced() {
		// Untraced requests run on the snapshot path with no engine
		// span attribution; fold the logical merge counters back into
		// the request span so telemetry (slow-query traces, the span
		// tree folded into the metrics registry) still reports the
		// work performed. Physical attribution (pool-gets, phys-reads)
		// requires FlagTrace.
		rq.span.Add(probe.CounterSeeks, int64(qs.Seeks))
		rq.span.Add(probe.CounterDataPages, int64(qs.DataPages))
		rq.span.Add(probe.CounterElements, int64(qs.Elements))
		rq.span.Add(probe.CounterResults, int64(qs.Results))
	}
	ss.settle(rq)
	ss.respDone.Store(true)
	if rq.traced() && rq.op != "explain" && rq.op != "stats" {
		if ss.minor >= 4 {
			tm := wire.TraceMsg{ID: rq.id, TraceID: rq.trace, Span: obs.EncodeSpan(rq.span)}
			if ss.send(wire.MsgTrace, tm.Encode()) != nil {
				return
			}
		} else if ss.send(wire.MsgText, wire.TextMsg{ID: rq.id, Text: rq.span.Render(true)}.Encode()) != nil {
			return
		}
	}
	dn := wire.Done{ID: rq.id, Stats: statsArray(qs)}
	if rq.traced() {
		dn.Timings = rq.timings()
	}
	ss.send(wire.MsgDone, dn.Encode())
}

// settle records the request's telemetry: it takes the latency
// reading, feeds the per-opcode latency and page-read histograms,
// records interesting requests (traced, slow, sampled) into the trace
// store behind /debug/traces, and emits the structured log line — a
// Warn with the rendered span tree for slow queries, or the sampled
// Info line. Every recorded or logged request carries a trace ID: the
// client's when it sent one, a freshly minted one otherwise, so store
// entries and log lines always grep-correlate.
//
// The terminal frame (DONE or ERROR) is written only after settle, so
// a request's telemetry happens-before its reply: a client that
// scrapes /metrics or /debug/traces once it has read the reply sees
// the request. A request that ends without a terminal frame (its
// connection failed mid-reply) is settled when its handler returns;
// settling twice is a no-op.
func (ss *session) settle(rq *request) {
	if rq.settled {
		return
	}
	rq.settled = true
	rq.span.End()
	total := time.Since(rq.recv)
	pages := rq.span.Total(probe.CounterPoolGets)
	if pages == 0 {
		// Untraced requests run on the snapshot path with no span
		// attribution; the merge's logical data-page count is the
		// closest available measure for the histogram and log line.
		pages = int64(rq.qs.DataPages)
	}
	m := ss.srv.metrics
	m.Histogram("server.latency." + rq.op).Observe(int64(total))
	m.Histogram("server.pages." + rq.op).Observe(pages)

	cfg := &ss.srv.cfg
	status := "ok"
	if rq.errCode != 0 {
		status = wire.CodeString(rq.errCode)
	}
	seq := ss.srv.reqSeq.Add(1)
	slow := cfg.SlowQuery < 0 || (cfg.SlowQuery > 0 && total >= cfg.SlowQuery)
	sampled := cfg.LogEvery > 0 && seq%uint64(cfg.LogEvery) == 0
	if rq.traced() || slow || sampled {
		if rq.trace == 0 {
			rq.trace = obs.NewTraceID()
		}
		kind := obs.TraceKindSampled
		switch {
		case slow:
			kind = obs.TraceKindSlow
		case rq.traced():
			kind = obs.TraceKindTraced
		}
		var root *probe.Trace
		if rq.traced() {
			root = rq.span
		}
		ss.srv.traces.Add(obs.TraceRecord{
			TraceID: rq.trace, Op: rq.op, Start: rq.recv, Dur: total,
			Status: status, Kind: kind, Root: root,
		})
	}

	if cfg.Logger == nil {
		return
	}
	args := []any{
		"op", rq.op,
		"id", rq.id,
		"remote", ss.conn.RemoteAddr().String(),
		"dur", total,
		"results", rq.qs.Results,
		"pages", pages,
		"status", status,
	}
	if rq.trace != 0 {
		args = append(args, "trace_id", obs.TraceIDString(rq.trace))
	}
	if slow {
		cfg.Logger.Warn("slow query", append(args, "trace", rq.span.Render(true))...)
		return
	}
	if sampled {
		cfg.Logger.Info("request", args...)
	}
}
