package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 < q <= 1) of an ascending slice by
// nearest rank, and 0 for an empty one.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// supported reports whether n samples carry the q-quantile: a percentile is
// reported only with at least ten samples beyond it.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// trimmedMean is the mean of v without its lowest and highest tenth. It
// suits a two-peaked sample, where the median jumps from one peak to the
// other between runs while the mean keeps both in proportion.
func trimmedMean(v []float64) float64 {
	s := sortedCopy(v)
	s = s[len(s)/10 : len(s)-len(s)/10]
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// spread is the distance between the first and third quartile as a share of
// the median: the run-to-run spread the driver computes. It needs at least
// two values.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// quartiles follows Python's statistics.quantiles(v, n=4), the exclusive
// method, so that the numbers printed here are the ones the driver sees.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
