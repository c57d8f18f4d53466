package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileNeedsSamplesBeyondIt(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{199, 0.95, false}, {200, 0.95, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{10500, 0.99, true}, {10500, 0.9999, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which is
// what the driver judges the benchmark's steadiness with.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([7.8, 7.5, 7.9, 8.1, 7.6, 7.7, 8.4, 7.4, 7.9, 8.0], n=4)
	// [7.575, 7.85, 8.025]
	v := []float64{7.8, 7.5, 7.9, 8.1, 7.6, 7.7, 8.4, 7.4, 7.9, 8.0}
	q1, q2, q3 := quartiles(v)
	for i, c := range []struct{ got, want float64 }{{q1, 7.575}, {q2, 7.85}, {q3, 8.025}} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("quartile %d = %v, want %v", i+1, c.got, c.want)
		}
	}
	if got, want := spread(v), (8.025-7.575)/7.85; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestTrimmedMeanDropsTheTenths(t *testing.T) {
	v := []float64{1000, 35, 35, 35, 35, 35, 50, 50, 50, 50, 50, 0.001, 35, 50, 35, 50, 35, 50, 35, 50}
	// 20 values: the two lowest and the two highest go; 8 x 35 and 8 x 50 stay.
	if got, want := trimmedMean(v), 42.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("trimmedMean = %v, want %v", got, want)
	}
	if got := trimmedMean([]float64{3, 5, 10}); got != 6 {
		t.Errorf("trimmedMean of three = %v, want their mean 6", got)
	}
	if got := trimmedMean(nil); got != 0 {
		t.Errorf("trimmedMean of nothing = %v, want 0", got)
	}
}
