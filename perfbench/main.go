// Command perfbench is the repository's benchmark. It runs one of three
// workloads against the system built from this checkout, checks every
// result against a brute-force oracle, and prints one JSON line of
// metrics:
//
//	perfbench --workload paper-range --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced
// pass. With --trace 1 it runs that pass and then a traced pass over
// the same operation sequence on a fresh database, and reports the
// per-layer metrics. The serving workloads run their system in a child
// process, this binary started with --system. README.md lists the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by
// every workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"peak_rss_mb", "MiB"},
	{"space_amp", "ratio"},
}

// perLayer are the traced run's metrics. A workload that does not pass
// through a layer reports its metrics as 0.
var perLayer = []metricDef{
	{"write_p99_ms", "ms"},
	{"client.residual_p50_ms", "ms"},
	{"server.queue_p99_ms", "ms"},
	{"server.plan_p50_ms", "ms"},
	{"server.exec_p50_ms", "ms"},
	{"server.stream_p50_ms", "ms"},
	{"router.shards_per_req", "count"},
	{"router.fanout_ms_per_req", "ms"},
	{"router.merge_ms_per_req", "ms"},
	{"query.prepare_us", "us"},
	{"query.rows_examined_per_returned", "ratio"},
	{"probe.read_p50_us", "us"},
	{"tx.commit_p99_ms", "ms"},
	{"tx.conflict_frac", "frac"},
	{"mvcc.gc_pending_pages_max", "pages"},
	{"core.data_pages_per_query", "pages"},
	{"core.efficiency", "frac"},
	{"core.seeks_per_query", "count"},
	{"core.results_per_query", "count"},
	{"core.join_merge_steps", "count"},
	{"core.join_distinct_per_raw", "frac"},
	{"decompose.elements_per_query", "count"},
	{"zorder.bigmin_skips_per_query", "count"},
	{"decompose.box_us", "us"},
	{"btree.node_visits_per_query", "count"},
	{"btree.leaf_scans_per_query", "count"},
	{"btree.distinct_leaf_frac", "frac"},
	{"disk.pool_hit_rate", "frac"},
	{"disk.phys_reads_per_query", "count"},
	{"disk.pool_evictions_per_query", "count"},
	{"disk.wal_bytes_per_user_byte", "ratio"},
	{"disk.checkpoint_p50_ms", "ms"},
	{"disk.wal_syncs_per_checkpoint", "count"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cpu_frac", "frac"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "frac"},
	{"self_ms.client.wait", "ms"},
	{"self_ms.client", "ms"},
	{"self_ms.server.queue", "ms"},
	{"self_ms.server.plan", "ms"},
	{"self_ms.server.exec", "ms"},
	{"self_ms.server.stream", "ms"},
	{"self_ms.router", "ms"},
	{"self_ms.router.fanout", "ms"},
	{"self_ms.router.merge", "ms"},
	{"self_ms.probe", "ms"},
	{"self_ms.core", "ms"},
	{"self_ms.decompose", "ms"},
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	trace   bool
	out     string // where a traced run writes its span dump
	// closed sends every open-loop operation as soon as its connection
	// is free; ops_per_s then measures the rate the system sustains,
	// which the open-loop rates are set from.
	closed bool
}

// report is what a workload run hands back. e2e comes from the
// untraced pass; layer from the traced one (trace runs only).
type report struct {
	attempted, failed, wrong int
	e2e, layer               map[string]float64
}

// tally counts a pass's operations and its failures: errors,
// refusals, conflicts and results the oracle rejects. Wrong results
// are also counted apart, so a run with any reports correct=false.
type tally struct {
	attempted, failed, wrong int
	first                    error
}

func (t *tally) fail(wrong bool, err error) {
	t.failed++
	if wrong {
		t.wrong++
	}
	if t.first == nil {
		t.first = err
	}
}

func (r *report) add(t tally) {
	r.attempted += t.attempted
	r.failed += t.failed
	r.wrong += t.wrong
	if t.first != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", t.failed, t.attempted, t.first)
	}
}

var workloads = map[string]func(config) (*report, error){
	"paper-range":  runPaperRange,
	"serve-mixed":  runServeMixed,
	"cluster-join": runClusterJoin,
}

// setupReps is how many times a run builds its starting state; setup_s
// is the median, and the last build is the one measured.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: paper-range, serve-mixed or cluster-join")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 25, "length of the measured pass at the seed's speed")
	trace := flag.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics")
	out := flag.String("out", "", "directory for span dumps (required)")
	closed := flag.Bool("closed-loop", false, "calibration: run the serving workloads closed-loop")
	system := flag.String("system", "", "run the named serving workload's system for a harness process (system.go)")
	flag.Parse()

	if *system != "" {
		if err := systemMain(*system, *seed); err != nil {
			fatal(err)
		}
		return
	}

	run, ok := workloads[*name]
	if !ok || *out == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --out DIR --workload paper-range|serve-mixed|cluster-join --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, closed: *closed,
		out: filepath.Join(*out, fmt.Sprintf("%s-%d", *name, os.Getpid()))}
	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}

	defs, vals := endToEnd, rep.e2e
	if cfg.trace {
		defs, vals = perLayer, rep.layer
	}
	res := result{Correct: rep.wrong == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			fatal(fmt.Errorf("workload %s did not report %s", *name, d.name))
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(vals) != len(defs) {
		fatal(fmt.Errorf("workload %s reported metrics outside the list: %v", *name, vals))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// timeSetups builds a workload's starting state setupReps times, closing
// all but the last, and returns the last with the median build time.
func timeSetups[E any](build func() (E, error), closeEnv func(E)) (E, float64, error) {
	var env E
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			closeEnv(env)
		}
		t0 := time.Now()
		e, err := build()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		env = e
	}
	return env, median(times), nil
}

// writeSpans dumps the traced pass's spans into the run's directory.
func writeSpans(cfg config, l *spanLog) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	if err := l.write(filepath.Join(cfg.out, "spans.jsonl")); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// selfMetrics turns the traced pass's layer self times into
// self_ms.<layer> per request.
func selfMetrics(l *spanLog, reqs int, into map[string]float64) {
	self := l.selfTimes()
	for _, d := range perLayer {
		layer, ok := strings.CutPrefix(d.name, "self_ms.")
		if !ok {
			continue
		}
		into[d.name] = ratio(ms(self[layer]), float64(reqs))
	}
}

// zeroLayers reports 0 for every per-layer metric a workload has not
// set: the layer is not on its path.
func zeroLayers(into map[string]float64) {
	for _, d := range perLayer {
		if _, ok := into[d.name]; !ok {
			into[d.name] = 0
		}
	}
}
