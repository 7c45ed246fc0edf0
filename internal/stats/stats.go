// Package stats provides the small statistical toolkit the benchmark
// harness and the real-runtime stack need: the mean, least-squares
// fits (for scaling exponents), an allocation-free log-bucket latency
// histogram with bounded-error quantiles (Hist) and its striped
// concurrent form (ShardedHist), and an exact interpolated Percentile
// that the histogram's quantile tests are held to. Standard library
// only.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It copies xs; the input is not
// disturbed.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Fit is a least-squares line y = Intercept + Slope*x with the
// coefficient of determination.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit fits ys against xs by ordinary least squares. The slices
// must have equal length of at least two, or the zero Fit is returned.
func LinearFit(xs, ys []float64) Fit {
	n := len(xs)
	if n < 2 || n != len(ys) {
		return Fit{}
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{Intercept: my}
	}
	slope := sxy / sxx
	f := Fit{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		f.R2 = 1
	} else {
		f.R2 = (sxy * sxy) / (sxx * syy)
	}
	return f
}

// PowerLawExponent fits y = c * x^k on log-log axes and returns k with
// its R². Non-positive values are skipped. This is how the harness
// extracts scaling exponents (T4) the way the era's papers eyeballed
// slopes on log-log figures.
func PowerLawExponent(xs, ys []float64) (k, r2 float64) {
	var lx, ly []float64
	for i := range xs {
		if i < len(ys) && xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	f := LinearFit(lx, ly)
	return f.Slope, f.R2
}
