package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},  // rank 990, 10 beyond
		{999, 0.99, 0, false},    // rank 990, 9 beyond
		{20, 0.50, 10, true},     // rank 10, 10 beyond
		{19, 0.50, 0, false},     // rank 10, 9 beyond
		{2000, 0.99, 1980, true}, // rank 1980, 20 beyond
		{0, 0.50, 0, false},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if (err == nil) != tc.ok {
			t.Fatalf("percentile(n=%d, q=%g) error = %v, want ok=%v", tc.n, tc.q, err, tc.ok)
		}
		if tc.ok && got != tc.want {
			t.Errorf("percentile(n=%d, q=%g) = %g, want %g", tc.n, tc.q, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}
