package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the
// nearest-rank rule, and an error when fewer than minBeyond samples
// lie beyond it — a tail read off too few samples is noise, not a
// measurement. xs need not be sorted; it is not modified.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", q*100)
	}
	rank := nearestRank(n, q)
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// nearestRank is the 1-based rank of the q-quantile of n samples.
func nearestRank(n int, q float64) int {
	return max(1, int(math.Ceil(q*float64(n))))
}

// median is the plain middle value (mean of the two middle values
// for even counts); 0 for no samples. It is for summarizing repeated
// measurements such as set-up times, where the ≥10-beyond rule does
// not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// samples collects latency samples in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

// pct is percentile with the error kept in *errp, so a workload can
// compute all its percentiles and report the first failure once.
func (s samples) pct(q float64, errp *error) float64 {
	v, err := percentile(s, q)
	return firstErr(errp, v, err)
}

func firstErr(errp *error, v float64, err error) float64 {
	if err != nil && *errp == nil {
		*errp = err
	}
	return v
}

// pctOrZero is percentile for per-layer metrics of a layer a workload
// may not reach: no samples reports 0, too few is still an error.
func (s samples) pctOrZero(q float64, errp *error) float64 {
	if len(s) == 0 {
		return 0
	}
	return s.pct(q, errp)
}
