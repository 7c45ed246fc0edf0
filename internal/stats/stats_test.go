package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 10 {
		t.Fatalf("P100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 5.5 {
		t.Fatalf("P50 = %v, want 5.5", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("Percentile(nil) != 0")
	}
	// Out-of-range p clamps.
	if got := Percentile(xs, -5); got != 1 {
		t.Fatalf("P-5 = %v", got)
	}
	if got := Percentile(xs, 150); got != 10 {
		t.Fatalf("P150 = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	f := LinearFit(xs, ys)
	if !approx(f.Slope, 2, 1e-9) || !approx(f.Intercept, 1, 1e-9) || !approx(f.R2, 1, 1e-9) {
		t.Fatalf("fit = %+v", f)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if f := LinearFit([]float64{1}, []float64{2}); f != (Fit{}) {
		t.Fatal("fit of one point should be zero")
	}
	f := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3})
	if f.Slope != 0 || f.Intercept != 2 {
		t.Fatalf("vertical data fit = %+v", f)
	}
	// Constant y: slope 0, perfect fit.
	f = LinearFit([]float64{1, 2, 3}, []float64{5, 5, 5})
	if f.Slope != 0 || f.R2 != 1 {
		t.Fatalf("constant-y fit = %+v", f)
	}
}

func TestPowerLawExponent(t *testing.T) {
	// y = 3 * x^1.7
	var xs, ys []float64
	for x := 1.0; x <= 64; x *= 2 {
		xs = append(xs, x)
		ys = append(ys, 3*math.Pow(x, 1.7))
	}
	k, r2 := PowerLawExponent(xs, ys)
	if !approx(k, 1.7, 1e-6) || !approx(r2, 1, 1e-9) {
		t.Fatalf("exponent = %v r2 = %v", k, r2)
	}
}

func TestPowerLawSkipsNonPositive(t *testing.T) {
	k, _ := PowerLawExponent([]float64{0, 1, 2, 4}, []float64{5, 1, 2, 4})
	if !approx(k, 1, 1e-9) {
		t.Fatalf("exponent = %v, want 1", k)
	}
}

// Property: mean lies within [min, max].
func TestMeanBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs[1:] {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		m := Mean(xs)
		return m >= lo-1e-6 && m <= hi+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentiles are monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(xs, pa) <= Percentile(xs, pb)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
