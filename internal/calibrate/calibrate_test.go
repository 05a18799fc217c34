package calibrate

import (
	"testing"

	"tireplay/internal/ground"
	"tireplay/internal/instrument"
	"tireplay/internal/npb"
)

const calIters = 5

func TestMeasureRateNearBase(t *testing.T) {
	// A-4 is cache-resident on bordereau: the measured rate must be close
	// to (and, because of comm pollution and jitter, not far above) the
	// cluster's base rate. Fine instrumentation inflates counters, so the
	// classic procedure may overestimate slightly.
	b := ground.Bordereau()
	build := instrument.Config{Mode: instrument.Minimal, Compile: instrument.O3}
	rate, err := MeasureRate(b, npb.ClassA, build, build, calIters)
	if err != nil {
		t.Fatal(err)
	}
	if rate < 0.85*b.BaseRate || rate > 1.1*b.BaseRate {
		t.Fatalf("A-4 rate = %.3g, want within ~10%% of base %.3g", rate, b.BaseRate)
	}
}

func TestClassicA4OverestimatesViaInflation(t *testing.T) {
	// The classic procedure divides *fine-instrumented* counters by the
	// (slower) instrumented run time; inflation and overhead partially
	// cancel, keeping the rate plausible.
	b := ground.Bordereau()
	rate, err := ClassicA4(b, calIters)
	if err != nil {
		t.Fatal(err)
	}
	if rate < 0.8*b.BaseRate || rate > 1.25*b.BaseRate {
		t.Fatalf("classic rate = %.3g, implausible vs base %.3g", rate, b.BaseRate)
	}
}

func TestCacheAwareRatesOrdering(t *testing.T) {
	// On bordereau, B-4 and C-4 spill out of L2: their measured rates must
	// be clearly below the A-4 (in-cache) rate — the phenomenon Section 3.4
	// exists to capture.
	b := ground.Bordereau()
	ca, err := NewCacheAware(b, []npb.Class{npb.ClassB, npb.ClassC}, calIters)
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []npb.Class{npb.ClassB, npb.ClassC} {
		if ca.ClassRates[class] >= 0.97*ca.ARate {
			t.Fatalf("class %s rate %.4g not below A rate %.4g", class, ca.ClassRates[class], ca.ARate)
		}
	}
}

func TestCacheAwareGrapheneDegradesToClassic(t *testing.T) {
	// On graphene every calibration instance fits the 2 MB L2 except C-4;
	// for all studied instances (which are cache-resident) RateFor must
	// return the A rate, i.e. "calibrating with a run of the A-4 instance
	// is then enough".
	g := ground.Graphene()
	ca, err := NewCacheAware(g, []npb.Class{npb.ClassB}, calIters)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{8, 64, 128} {
		lu, err := npb.NewLU(npb.ClassB, procs, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rate := ca.RateFor(lu, npb.ClassB); rate != ca.ARate {
			t.Fatalf("B-%d on graphene: rate %.4g != A rate %.4g", procs, rate, ca.ARate)
		}
	}
}

func TestRateForSelectsByWorkingSet(t *testing.T) {
	b := ground.Bordereau()
	ca, err := NewCacheAware(b, []npb.Class{npb.ClassC}, calIters)
	if err != nil {
		t.Fatal(err)
	}
	// C-8 spills on bordereau: class rate. C-64 fits: A rate.
	c8, _ := npb.NewLU(npb.ClassC, 8, 1)
	c64, _ := npb.NewLU(npb.ClassC, 64, 1)
	if ca.RateFor(c8, npb.ClassC) != ca.ClassRates[npb.ClassC] {
		t.Fatal("C-8 should use the class rate on bordereau")
	}
	if ca.RateFor(c64, npb.ClassC) != ca.ARate {
		t.Fatal("C-64 should use the A rate on bordereau")
	}
}

func TestRateForUnknownClassFallsBack(t *testing.T) {
	ca := &CacheAware{ARate: 100, ClassRates: map[npb.Class]float64{}, L2Bytes: 1}
	lu, _ := npb.NewLU(npb.ClassB, 4, 1) // working set > 1 byte
	if rate := ca.RateFor(lu, npb.ClassB); rate != 100 {
		t.Fatalf("fallback rate = %v, want ARate", rate)
	}
}
