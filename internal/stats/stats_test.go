package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanSimple(t *testing.T) {
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m != 2.5 {
		t.Fatalf("mean = %v, want 2.5", m)
	}
}

func TestMeanEmpty(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if m, _ := Min(xs); m != -1 {
		t.Errorf("min = %v, want -1", m)
	}
	if m, _ := Max(xs); m != 7 {
		t.Errorf("max = %v, want 7", m)
	}
}

func TestQuantileMedianOdd(t *testing.T) {
	q, err := Quantile([]float64{5, 1, 3}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if q != 3 {
		t.Fatalf("median = %v, want 3", q)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	q, err := Quantile([]float64{0, 10}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if q != 2.5 {
		t.Fatalf("q25 = %v, want 2.5", q)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{9, 1, 5}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 9 || xs[1] != 1 || xs[2] != 5 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestQuantileRejectsOutOfRange(t *testing.T) {
	if _, err := Quantile([]float64{1}, 1.5); err == nil {
		t.Fatal("expected error for q>1")
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Fatal("expected error for q<0")
	}
}

func TestRelErrSigns(t *testing.T) {
	if e := RelErr(110, 100); math.Abs(e-10) > 1e-12 {
		t.Errorf("overestimate: %v, want 10", e)
	}
	if e := RelErr(90, 100); math.Abs(e+10) > 1e-12 {
		t.Errorf("underestimate: %v, want -10", e)
	}
	if e := RelErr(0, 0); e != 0 {
		t.Errorf("0/0: %v, want 0", e)
	}
	if e := RelErr(1, 0); !math.IsInf(e, 1) {
		t.Errorf("1/0: %v, want +Inf", e)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Fatalf("quartiles = %v/%v, want 2/4", s.Q1, s.Q3)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
			v, err := Quantile(xs, q)
			if err != nil {
				return false
			}
			if v < prev {
				return false
			}
			prev = v
		}
		lo, _ := Min(xs)
		hi, _ := Max(xs)
		q0, _ := Quantile(xs, 0)
		q1, _ := Quantile(xs, 1)
		return q0 == lo && q1 == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mean is bounded by min and max.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m, _ := Mean(xs)
		lo, _ := Min(xs)
		hi, _ := Max(xs)
		return m >= lo-1e-6 && m <= hi+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGForkIndependent(t *testing.T) {
	r := NewRNG(7)
	a, b := r.Fork(0), r.Fork(1)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked streams collided %d times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}
