package main

import (
	"testing"
	"time"

	"probe"
)

func sealed(name string, d time.Duration, kids ...*probe.Trace) *probe.Trace {
	t := probe.NewSealedTrace(name, d)
	for _, k := range kids {
		t.Attach(k)
	}
	return t
}

// A router's tree: two shard calls in parallel, each with the shard's
// phase breakdown and its own span tree, and a merge. Self times
// subtract what children cover, the longest child for the fan-out.
func TestSelfTimesOfARoutedRequest(t *testing.T) {
	ms := time.Millisecond
	shard := func(name string, call, exec, engine time.Duration) *probe.Trace {
		return sealed(name, call,
			sealed("server.queue", ms), sealed("server.plan", ms),
			sealed("server.exec", exec), sealed("server.stream", ms),
			sealed("join", 20*ms, sealed("spatial-join", engine)))
	}
	tree := sealed("router.join", 12*ms,
		shard("fanout.shard0.primary", 7*ms, 3*ms, 2*ms),
		shard("fanout.shard1.primary", 9*ms, 5*ms, 4*ms),
		sealed("merge", ms))

	var log spanLog
	root := log.add(0, -1, "client.join", "client", 13*ms)
	log.addTrace(0, root, tree)
	got := log.selfTimes()
	want := map[string]time.Duration{
		"client":        1 * ms, // 13 - 12
		"router":        3 * ms, // 12 - longest child (9)
		"router.fanout": 2 * ms, // (7 - 6) + (9 - 8)
		"router.merge":  1 * ms,
		"server.queue":  2 * ms,
		"server.plan":   2 * ms,
		"server.stream": 2 * ms,
		"server.exec":   2 * ms, // (3 - 2) + (5 - 4)
		"core":          6 * ms, // 2 + 4; the shards' request roots are dropped
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want exactly %v", got, want)
	}
}
