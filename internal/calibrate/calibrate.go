// Package calibrate implements the two calibration procedures of the paper:
// the original one — derive a single instruction rate from a run of the A-4
// instance (Section 2.3) — and the cache-aware one of Section 3.4, which
// additionally runs B-4 and C-4 on the same four cores and selects, per
// simulated instance, the rate of its class when the instance's data does
// not fit in the L2 cache.
//
// A calibration run measures what a user of the real framework measures:
// the hardware counter total of an instrumented run divided by its
// wall-clock time. The quotient is polluted by communication wait and by
// the instrumentation itself — realistic imperfections the paper's analysis
// attributes part of the replay error to.
package calibrate

import (
	"fmt"

	"tireplay/internal/ground"
	"tireplay/internal/instrument"
	"tireplay/internal/npb"
	"tireplay/internal/stats"
)

// calibrationProcs is the number of processes calibration runs use; the
// paper fixes it at four ("using only as few resources as four cores did
// not raise any issue").
const calibrationProcs = 4

// MeasureRate runs the class-4 LU instance on the cluster and returns
// instructions-per-second as a user of the real framework measures it:
// mean per-rank counter total of the counted build divided by mean per-rank
// *exclusive application time* of the timed build (TAU's profile separates
// time spent inside MPI from time spent computing, so the quotient is not
// polluted by communication waits — but it is still distorted by counter
// inflation, probe time and machine jitter, which is part of what the
// paper's accuracy analysis observes). Both configurations are set to
// the class. iterations>0 shortens the run (rates converge after a few
// iterations).
func MeasureRate(c *ground.Cluster, class npb.Class, timed, counted instrument.Config, iterations int) (float64, error) {
	lu, err := npb.NewLU(class, calibrationProcs, iterations)
	if err != nil {
		return 0, err
	}
	timed.Class, counted.Class = class, class
	run, err := c.Run(lu, timed)
	if err != nil {
		return 0, err
	}
	counters, err := instrument.Counters(lu, counted)
	if err != nil {
		return 0, err
	}
	mean, err := stats.Mean(counters)
	if err != nil {
		return 0, err
	}
	busy, err := stats.Mean(run.ComputeSeconds)
	if err != nil {
		return 0, err
	}
	if busy <= 0 {
		return 0, fmt.Errorf("calibrate: %s %s-4 run has no compute time", c.Name, class)
	}
	return mean / busy, nil
}

// ClassicA4 is the first implementation's procedure: one rate, measured on
// the A-4 instance. It combines the instruction total of the *fine-grain
// instrumented* acquisition run with the compute time of the *original*
// execution — the only two measurements the first tool chain collected.
// Because fine-grain probes inflate the counter by 10-13% (Section 2.2),
// the quotient overestimates the machine's true rate; Section 2.4 points at
// exactly this: the counter discrepancy "directly impacts the calibration
// of the replay tool that determines the rate at which each machine can
// process instructions", which is why the first implementation
// underestimates execution times at small process counts. Being
// cache-resident, A-4 additionally hides the slower out-of-cache regime
// (Section 2.3).
func ClassicA4(c *ground.Cluster, iterations int) (float64, error) {
	return MeasureRate(c, npb.ClassA,
		c.InstrConfig(instrument.None, instrument.O0, npb.ClassA),
		c.InstrConfig(instrument.Fine, instrument.O0, npb.ClassA), iterations)
}

// CacheAware is the improved procedure of Section 3.4: per-class rates from
// A-4, B-4 and C-4 runs under the new acquisition settings (minimal
// instrumentation, -O3), selected per instance by comparing its working set
// to the cluster's L2 capacity.
type CacheAware struct {
	// ARate is the in-cache reference rate (from A-4).
	ARate float64
	// ClassRates holds the per-class rates measured at 4 processes.
	ClassRates map[npb.Class]float64
	// L2Bytes is the capacity the working-set test uses.
	L2Bytes float64
}

// NewCacheAware runs the calibration instances (A-4 always; each class in
// classes additionally) and returns the rate table. On clusters whose L2
// holds every class at four processes, all rates converge to the A-4 rate
// and the procedure gracefully degrades to the classic one — exactly the
// graphene situation described in Section 3.4.
func NewCacheAware(c *ground.Cluster, classes []npb.Class, iterations int) (*CacheAware, error) {
	measure := func(class npb.Class) (float64, error) {
		build := c.InstrConfig(instrument.Minimal, instrument.O3, class)
		return MeasureRate(c, class, build, build, iterations)
	}
	aRate, err := measure(npb.ClassA)
	if err != nil {
		return nil, err
	}
	ca := &CacheAware{
		ARate:      aRate,
		ClassRates: make(map[npb.Class]float64, len(classes)),
		L2Bytes:    c.L2Bytes,
	}
	for _, class := range classes {
		if ca.ClassRates[class], err = measure(class); err != nil {
			return nil, err
		}
	}
	return ca, nil
}

// RateFor selects the rate for an instance: the class rate when any rank's
// working set exceeds L2 (the instance runs in the slow regime the class-4
// calibration captured), the A-4 rate otherwise.
func (ca *CacheAware) RateFor(w npb.Workload, class npb.Class) float64 {
	outOfCache := false
	for r := 0; r < w.Ranks(); r++ {
		if w.WorkingSet(r) > ca.L2Bytes {
			outOfCache = true
			break
		}
	}
	if outOfCache {
		if rate, ok := ca.ClassRates[class]; ok {
			return rate
		}
	}
	return ca.ARate
}
