package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"time"

	"probe"
	"probe/client"
)

// span is one timed step of one request in the traced pass. Spans of a
// request share req; parent indexes the span that caused this one (-1
// for a root). A span known only by its duration — a server phase read
// off the DONE timing tail, a node of a span tree the server sent back
// — has no start of its own on the harness clock.
type span struct {
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Dur    int64  `json:"dur_ns"`
	// Fanout marks a span whose children ran in parallel (the router's
	// per-shard calls): they cover the parent for as long as the longest
	// one, not for their sum.
	Fanout bool `json:"fanout,omitempty"`
}

// spanLog keeps the traced pass's spans in memory; write dumps them
// when the run ends.
type spanLog struct{ spans []span }

func (l *spanLog) add(req, parent int, name, layer string, d time.Duration) int {
	l.spans = append(l.spans, span{Req: req, Parent: parent, Name: name, Layer: layer, Dur: int64(d)})
	return len(l.spans) - 1
}

// addTrace copies a span tree the system returned (probe.Trace from the
// library, or the tree a server or router sent with a traced reply)
// under parent, naming each node's layer by layerOf. A node whose
// children include a server's phase breakdown (the router grafts one
// per shard call) gets it through addServer.
func (l *spanLog) addTrace(req, parent int, t *probe.Trace) {
	i := l.add(req, parent, t.Name(), layerOf(t.Name()), t.Duration())
	tm, phased, rest := phaseTiming(t)
	for _, c := range rest {
		if strings.HasPrefix(c.Name(), "fanout.") {
			l.spans[i].Fanout = true
		}
	}
	if phased {
		l.addServer(req, i, tm, rest...)
		return
	}
	for _, c := range rest {
		l.addTrace(req, i, c)
	}
}

// phaseTiming reads the server phase spans (server.queue, .plan, .exec,
// .stream) a router grafts under each shard call back into a Timing,
// and returns the other children apart.
func phaseTiming(t *probe.Trace) (tm client.Timing, phased bool, rest []*probe.Trace) {
	for _, c := range t.Children() {
		switch c.Name() {
		case "server.queue":
			tm.Queue = c.Duration()
		case "server.plan":
			tm.Plan = c.Duration()
		case "server.exec":
			tm.Exec = c.Duration()
		case "server.stream":
			tm.Stream = c.Duration()
		default:
			rest = append(rest, c)
			continue
		}
		phased = true
	}
	return tm, phased, rest
}

// addServer adds one server reply under parent: the queue, plan, exec
// and stream phases of its DONE timing tail, one after another, with
// the engine spans of the server's own span trees under exec. The
// root of a server's tree spans the whole request and would count its
// phases twice, so only its children are kept.
func (l *spanLog) addServer(req, parent int, tm client.Timing, roots ...*probe.Trace) {
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"server.queue", tm.Queue}, {"server.plan", tm.Plan}, {"server.exec", tm.Exec}, {"server.stream", tm.Stream}} {
		i := l.add(req, parent, ph.name, ph.name, ph.d)
		if ph.name != "server.exec" {
			continue
		}
		for _, r := range roots {
			for _, c := range r.Children() {
				l.addTrace(req, i, c)
			}
		}
	}
}

// layerOf maps a span name from the system's own trees, or from the
// harness's root spans, to the module that did the work.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "client."):
		return "client"
	case strings.HasPrefix(name, "probe."):
		return "probe"
	case strings.HasPrefix(name, "fanout."):
		return "router.fanout"
	case name == "merge":
		return "router.merge"
	case strings.HasPrefix(name, "router."):
		return "router"
	}
	return "core" // engine operators: range-search, spatial-join, nearest...
}

// selfTimes sums each layer's self time: a span's duration minus the
// part of it its children cover. Children of a fan-out span cover the
// longest child; other children run one after another and cover their
// sum. Coverage is capped at the span's own duration.
func (l *spanLog) selfTimes() map[string]time.Duration {
	covered := make([]int64, len(l.spans))
	longest := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent < 0 {
			continue
		}
		covered[s.Parent] += s.Dur
		if s.Dur > longest[s.Parent] {
			longest[s.Parent] = s.Dur
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range l.spans {
		c := covered[i]
		if s.Fanout {
			c = longest[i]
		}
		if c > s.Dur {
			c = s.Dur
		}
		out[s.Layer] += time.Duration(s.Dur - c)
	}
	return out
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
