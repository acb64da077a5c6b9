package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"probe"
)

// paper-range: the paper's clustered experiment, scaled 40-fold, run on
// the library in process by one caller in a closed loop. Nearly all the
// work is in zorder, decompose, btree, disk and core.
const (
	prBits       = 16  // 2-D grid, 65536 × 65536
	prClusters   = 400 // experiment C has 50 clusters of 100 points
	prPerCluster = 500
	prScale      = 40.0 // prClusters·prPerCluster / 5000: query volumes shrink by it
	prRate       = 320  // operations per second of --seconds: about the seed's closed-loop rate
	prWarmup     = 300  // untimed operations that fill the buffer pool first
)

type prKind uint8

const (
	prRange prKind = iota
	prPartial
	prNearest
)

var prKindNames = [...]string{"range", "partial-match", "nearest"}

// prOp is one paper-range operation.
type prOp struct {
	kind       prKind
	box        probe.Box // range, and the box a partial match is equal to
	strategy   probe.Strategy
	restricted []bool
	value      []uint32
	q          []uint32
	k          int
}

// prPoints makes the clustered data set of experiment C at 40 times its
// size: clusters with standard deviation side/80, one point per pixel.
func prPoints(g probe.Grid, seed int64) []probe.Point {
	rng := rand.New(rand.NewSource(seed))
	side := float64(g.Side())
	seen := make(map[uint64]bool, prClusters*prPerCluster)
	var pts []probe.Point
	for c := 0; c < prClusters; c++ {
		cx, cy := rng.Float64()*side, rng.Float64()*side
		for i := 0; i < prPerCluster; i++ {
			x := clampCoord(cx+rng.NormFloat64()*side/80, side)
			y := clampCoord(cy+rng.NormFloat64()*side/80, side)
			if z := g.ShuffleKey([]uint32{x, y}); !seen[z] {
				seen[z] = true
				pts = append(pts, probe.Pt2(uint64(len(pts)), x, y))
			}
		}
	}
	return pts
}

func clampCoord(v, side float64) uint32 {
	switch {
	case v < 0:
		return 0
	case v > side-1:
		return uint32(side - 1)
	}
	return uint32(v)
}

// paperVolumes and paperAspects are the query sweep of Section 5.3.2:
// four volumes (as fractions of the space) by seven shapes.
var (
	paperVolumes = []float64{0.01, 0.04, 0.09, 0.16}
	paperAspects = []float64{16, 4, 2, 1, 0.5, 0.25, 0.0625}
)

// prOps makes n operations: 70% range boxes from the sweep with their
// volume divided by prScale (so each returns about as many points as
// the paper's did), each with a random one of the three strategies;
// 15% partial matches through a data point; 15% nearest-k queries near
// a data point.
func prOps(g probe.Grid, pts []probe.Point, n int, rng *rand.Rand) []prOp {
	side := float64(g.Side())
	strategies := []probe.Strategy{probe.MergeDecomposed, probe.MergeLazy, probe.SkipBigMin}
	ops := make([]prOp, n)
	for i := range ops {
		anchor := pts[rng.Intn(len(pts))].Coords
		switch r := rng.Float64(); {
		case r < 0.70:
			vol := paperVolumes[rng.Intn(len(paperVolumes))] / prScale
			asp := paperAspects[rng.Intn(len(paperAspects))]
			ops[i] = prOp{kind: prRange, box: randomBox(rng, side, vol, asp),
				strategy: strategies[rng.Intn(len(strategies))]}
		case r < 0.85:
			d := rng.Intn(2)
			restricted := []bool{d == 0, d == 1}
			value := []uint32{anchor[0], anchor[1]}
			box := probe.Box2(0, uint32(side-1), 0, uint32(side-1))
			box.Lo[d], box.Hi[d] = value[d], value[d]
			ops[i] = prOp{kind: prPartial, box: box, restricted: restricted, value: value,
				strategy: probe.MergeLazy}
		default:
			q := []uint32{jitter(rng, anchor[0], 256, side), jitter(rng, anchor[1], 256, side)}
			ops[i] = prOp{kind: prNearest, q: q, k: []int{1, 8, 32}[rng.Intn(3)]}
		}
	}
	return ops
}

// randomBox places a box of the given volume fraction and aspect
// (width:height) uniformly in a square space.
func randomBox(rng *rand.Rand, side, vol, aspect float64) probe.Box {
	area := vol * side * side
	w := clampSide(math.Sqrt(area*aspect), side)
	h := clampSide(area/w, side)
	x := uint32(rng.Float64() * (side - w + 1))
	y := uint32(rng.Float64() * (side - h + 1))
	return probe.Box2(x, x+uint32(w)-1, y, y+uint32(h)-1)
}

func clampSide(v, side float64) float64 {
	switch {
	case v < 1:
		return 1
	case v > side:
		return side
	}
	return float64(int(v))
}

func jitter(rng *rand.Rand, v uint32, r int, side float64) uint32 {
	return clampCoord(float64(v)+float64(rng.Intn(2*r+1)-r), side)
}

// prRun runs one op; opts may add a trace.
func prRun(db *probe.DB, op *prOp, opts ...probe.QueryOption) ([]probe.Point, []probe.Neighbor, probe.QueryStats, error) {
	switch op.kind {
	case prRange:
		pts, qs, err := db.RangeSearch(op.box, append(opts, probe.WithStrategy(op.strategy))...)
		return pts, nil, qs, err
	case prPartial:
		pts, qs, err := db.PartialMatch(op.restricted, op.value, append(opts, probe.WithStrategy(op.strategy))...)
		return pts, nil, qs, err
	}
	nbs, qs, err := db.Nearest(op.q, op.k, probe.Euclidean, opts...)
	return nil, nbs, qs, err
}

// prOutcome is one op's result, kept for the check after the pass. A
// point set is kept only as its fingerprint.
type prOutcome struct {
	fp  fingerprint
	nbs []probe.Neighbor
	err error
}

func newPROutcome(pts []probe.Point, nbs []probe.Neighbor, err error) prOutcome {
	out := prOutcome{nbs: nbs, err: err}
	for _, p := range pts {
		out.fp.add(p.ID)
	}
	return out
}

// prCheck verifies every outcome against the oracle.
func prCheck(o *oracle, ops []prOp, outs []prOutcome) tally {
	t := tally{attempted: len(ops)}
	for i := range ops {
		op, out := &ops[i], &outs[i]
		var err error
		switch {
		case out.err != nil:
			t.fail(false, fmt.Errorf("%s: %w", prKindNames[op.kind], out.err))
			continue
		case op.kind == prNearest:
			err = o.checkNearest(op.q, op.k, out.nbs, window{})
		default:
			if want := o.fingerprintOf(op.box); want != out.fp {
				err = fmt.Errorf("%s %v returned %d points (sum %x), want %d (sum %x)",
					prKindNames[op.kind], op.box, out.fp.n, out.fp.sum, want.n, want.sum)
			}
		}
		if err != nil {
			t.fail(true, err)
		}
	}
	return t
}

func runPaperRange(cfg config) (*report, error) {
	g := probe.MustGrid(2, prBits)
	pts := prPoints(g, cfg.seed)
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	warmOps := prOps(g, pts, prWarmup, rng)
	ops := prOps(g, pts, prRate*cfg.seconds, rng)

	// The library runs in this process: peak_rss_mb counts from here,
	// with the inputs (the points to load, the operations) made and
	// the garbage of making them collected. The oracle is built after
	// the peak is read.
	freeGarbage()
	resetPeakRSS()
	open := func() (*probe.DB, error) { return probe.Open(g, probe.WithBulkLoad(pts)) }
	// warm runs the warm-up sequence, untimed, so the pass starts with
	// the buffer pool holding what a running system would.
	warm := func(db *probe.DB) error {
		for i := range warmOps {
			if _, _, _, err := prRun(db, &warmOps[i]); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	}
	db, setup, err := timeSetups(open, func(db *probe.DB) { db.Close(); freeGarbage() })
	if err != nil {
		return nil, err
	}
	if err := warm(db); err != nil {
		return nil, err
	}

	// Untraced pass: one caller, each op timed alone; the result is
	// fingerprinted after its timer stops.
	outs := make([]prOutcome, len(ops))
	var lat samples
	c0 := readGoCost()
	for i := range ops {
		t0 := time.Now()
		pts, nbs, _, err := prRun(db, &ops[i])
		lat.add(time.Since(t0))
		outs[i] = newPROutcome(pts, nbs, err)
	}
	c1 := readGoCost()
	pages := db.Index().Tree().Pool().Store().NumPages()
	pageSize := db.Index().Tree().Pool().Store().PageSize()
	leafCap := db.Index().Tree().LeafCapacity()
	peak := peakRSSMB()
	db.Close()

	rep := &report{}
	orc := newOracle(g, pts)
	rep.add(prCheck(orc, ops, outs))
	var perr error
	rep.e2e = map[string]float64{
		"setup_s":     setup,
		"ops_per_s":   closedRate(lat),
		"p50_ms":      lat.pct(0.50, &perr),
		"p99_ms":      lat.pct(0.99, &perr),
		"read_p99_ms": lat.pct(0.99, &perr),
		"peak_rss_mb": peak,
		"space_amp":   float64(pages*pageSize) / float64(len(pts)*pointBytes(g)),
	}
	if perr != nil {
		return nil, perr
	}
	if !cfg.trace {
		return rep, nil
	}

	// Traced pass over the same sequence on a fresh database.
	if db, err = open(); err != nil {
		return nil, err
	}
	defer db.Close()
	if err := warm(db); err != nil {
		return nil, err
	}
	var log spanLog
	var tlat samples
	var decomp samples
	sum := make(map[probe.CounterID]float64)
	var effResults, effCap float64
	outs = make([]prOutcome, len(ops))
	for i := range ops {
		op := &ops[i]
		if op.kind == prRange {
			t0 := time.Now()
			probe.DecomposeBox(g, op.box)
			d := time.Since(t0)
			decomp = append(decomp, us(d))
			log.add(i, -1, "decompose.box", "decompose", d)
		}
		tr := probe.NewTrace("probe." + prKindNames[op.kind])
		t0 := time.Now()
		pts, nbs, qs, err := prRun(db, op, probe.WithTrace(tr))
		tlat.add(time.Since(t0))
		tr.End()
		outs[i] = newPROutcome(pts, nbs, err)
		log.addTrace(i, -1, tr)
		for _, c := range prCounters {
			sum[c] += float64(tr.Total(c))
		}
		if op.kind != prNearest && qs.DataPages > 0 {
			effResults += float64(qs.Results)
			effCap += float64(qs.DataPages * leafCap)
		}
	}
	rep.add(prCheck(orc, ops, outs))
	if err := writeSpans(cfg, &log); err != nil {
		return nil, err
	}
	n := float64(len(ops))
	per := func(c probe.CounterID) float64 { return sum[c] / n }
	allocs, bytes, gcFrac := c0.perOp(c1, len(ops))
	rep.layer = map[string]float64{
		"probe.read_p50_us":             rep.e2e["p50_ms"] * 1000,
		"core.data_pages_per_query":     per(probe.CounterDataPages),
		"core.efficiency":               ratio(effResults, effCap),
		"core.seeks_per_query":          per(probe.CounterSeeks),
		"core.results_per_query":        per(probe.CounterResults),
		"decompose.elements_per_query":  per(probe.CounterElements),
		"zorder.bigmin_skips_per_query": per(probe.CounterBigMinSkips),
		"decompose.box_us":              median(decomp),
		"btree.node_visits_per_query":   per(probe.CounterNodeVisits),
		"btree.leaf_scans_per_query":    per(probe.CounterLeafScans),
		"btree.distinct_leaf_frac":      ratio(sum[probe.CounterDataPages], sum[probe.CounterLeafScans]),
		"disk.pool_hit_rate":            ratio(sum[probe.CounterPoolHits], sum[probe.CounterPoolGets]),
		"disk.phys_reads_per_query":     per(probe.CounterPhysReads),
		"disk.pool_evictions_per_query": per(probe.CounterPoolEvictions),
		"mvcc.gc_pending_pages_max":     float64(db.MVCCStats().RetainedPages),
		"go.allocs_per_op":              allocs,
		"go.alloc_bytes_per_op":         bytes,
		"go.gc_cpu_frac":                gcFrac,
		"trace.overhead_frac":           tlat.pct(0.5, &perr)/rep.e2e["p50_ms"] - 1,
	}
	selfMetrics(&log, len(ops), rep.layer)
	zeroLayers(rep.layer)
	return rep, perr
}

// closedRate is a closed loop's throughput: operations per second of
// busy time.
func closedRate(lat samples) float64 {
	var busy float64
	for _, l := range lat {
		busy += l
	}
	return float64(len(lat)) / (busy / 1000)
}

// prCounters are the engine counters the traced pass sums.
var prCounters = []probe.CounterID{
	probe.CounterDataPages, probe.CounterSeeks, probe.CounterResults,
	probe.CounterElements, probe.CounterBigMinSkips, probe.CounterNodeVisits,
	probe.CounterLeafScans, probe.CounterPoolGets, probe.CounterPoolHits,
	probe.CounterPhysReads, probe.CounterPoolEvictions,
}

// pointBytes is the size of one user point: a 64-bit id and a 32-bit
// coordinate per dimension.
func pointBytes(g probe.Grid) int { return 8 + 4*g.Dims() }
