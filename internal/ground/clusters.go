package ground

import (
	"fmt"
	"strings"

	"tireplay/internal/instrument"
	"tireplay/internal/mpi"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
)

// Lookup returns the emulated cluster of the given name, ignoring case.
func Lookup(name string) (*Cluster, error) {
	switch strings.ToLower(name) {
	case "bordereau":
		return Bordereau(), nil
	case "graphene":
		return Graphene(), nil
	}
	return nil, fmt.Errorf("ground: unknown cluster %q (want bordereau or graphene)", name)
}

// Factor tables of the piece-wise-linear network model, shared by the
// ground truth and the SMPI replay (SMPI's model was validated against the
// real interconnect, so handing the replay the same tuned factors mirrors
// the paper's setup; the replay's remaining error comes from protocol
// modelling, not factor mismatch). MaxBytes 0 in the last segment means
// "unbounded" (platform.Spec convention).
func gigabitEthernetFactors() []platform.SegmentSpec {
	return []platform.SegmentSpec{
		{MaxBytes: 1024, LatFactor: 1.9, BwFactor: 0.25},
		{MaxBytes: 8192, LatFactor: 1.5, BwFactor: 0.55},
		{MaxBytes: 65536, LatFactor: 1.3, BwFactor: 0.80},
		{MaxBytes: 1 << 20, LatFactor: 1.05, BwFactor: 0.92},
		{MaxBytes: 0, LatFactor: 1, BwFactor: 0.97},
	}
}

// Bordereau models the paper's aging cluster: 93 dual-proc dual-core
// 2.6 GHz Opteron 2218 nodes (1 MB L2 per core) behind a single 10 Gb
// switch, with gigabit NICs.
func Bordereau() *Cluster {
	return &Cluster{
		Name:             "bordereau",
		Hosts:            93,
		BaseRate:         2.15e9,
		L2Bytes:          1 << 20,
		OutOfCacheFactor: 0.86,
		JitterAmp:        0.05,
		Seed:             42,
		O3Scales: map[npb.Class]float64{
			npb.ClassB: 0.82,
			npb.ClassC: 0.85,
		},
		MPI: mpi.ModelConfig{
			MemcpyBandwidth: 2.2e9,
			MemcpyLatency:   5e-6,
			SendOverhead:    2e-6,
			RecvOverhead:    2e-6,
		},
		Spec: func(n int) *platform.Spec {
			return &platform.Spec{
				Name:              "bordereau",
				Topology:          "flat",
				Hosts:             n,
				Speed:             2.15e9,
				LinkBandwidth:     1.25e8, // gigabit NIC
				LinkLatency:       3.0e-5,
				BackboneBandwidth: 1.25e9, // 10 Gb switch fabric
				BackboneLatency:   1.5e-6,
				LoopbackLatency:   2e-7,
				Factors:           gigabitEthernetFactors(),
			}
		},
	}
}

// Graphene models the more recent cluster: 144 quad-core 2.53 GHz Xeon
// X3440 nodes (2 MB L2 per core) scattered across four cabinets
// interconnected by a hierarchy of 10 Gb switches.
func Graphene() *Cluster {
	return &Cluster{
		Name:             "graphene",
		Hosts:            144,
		BaseRate:         4.0e9,
		L2Bytes:          2 << 20,
		OutOfCacheFactor: 0.85,
		JitterAmp:        0.035,
		Seed:             7,
		O3Scales: map[npb.Class]float64{
			npb.ClassB: 0.82,
			npb.ClassC: 0.76,
		},
		// graphene ran the newer TAU 2.21 with faster local disks: probes
		// are noticeably cheaper per MPI event than on bordereau.
		ProbeCosts: &instrument.Costs{
			AppProbeInstr:        200,
			AppProbeTime:         55e-9,
			MPIProbeInstrFine:    9000,
			MPIProbeInstrMinimal: 5500,
			MPIEventTimeFine:     12e-6,
			MPIEventTimeMinimal:  8e-6,
			CoarseSectionInstr:   2000,
		},
		MPI: mpi.ModelConfig{
			MemcpyBandwidth: 3.2e9,
			MemcpyLatency:   6e-6,
			SendOverhead:    1.5e-6,
			RecvOverhead:    1.5e-6,
		},
		Spec: func(n int) *platform.Spec {
			perCab := 36
			cabinets := (n + perCab - 1) / perCab
			if cabinets < 1 {
				cabinets = 1
			}
			return &platform.Spec{
				Name:              "graphene",
				Topology:          "hierarchical",
				Cabinets:          cabinets,
				HostsPerCabinet:   perCab,
				Speed:             4.0e9,
				LinkBandwidth:     1.25e8,
				LinkLatency:       2.5e-5,
				CabinetBandwidth:  1.25e9,
				CabinetLatency:    1.5e-6,
				BackboneBandwidth: 2.5e9,
				BackboneLatency:   2e-6,
				LoopbackLatency:   2e-7,
				Factors:           gigabitEthernetFactors(),
			}
		},
	}
}
