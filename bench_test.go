// Benchmarks regenerating every table and figure of the paper, plus
// efficiency benchmarks of the replay engine itself (the second axis of the
// paper's title). Each evaluation bench runs a reduced-size version of the
// corresponding experiment; `cmd/experiments` prints the full rows.
//
// Run with:
//
//	go test -bench=. -benchmem
package tireplay_test

import (
	"testing"

	"tireplay"
	"tireplay/internal/experiments"
	"tireplay/internal/ground"
	"tireplay/internal/npb"
)

// benchOpt keeps the evaluation benches fast; shapes are iteration-count
// invariant.
var benchOpt = experiments.Options{Iterations: 3, CalibrationIterations: 2}

var benchProcs = []int{8, 16}

func benchClasses() []npb.Class { return []npb.Class{npb.ClassB} }

// BenchmarkTable1Bordereau regenerates Table 1 rows (acquisition overhead,
// bordereau).
func BenchmarkTable1Bordereau(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableOverhead(ground.Bordereau(), benchClasses(), benchProcs, benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Graphene regenerates Table 2 rows (acquisition overhead,
// graphene).
func BenchmarkTable2Graphene(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableOverhead(ground.Graphene(), benchClasses(), benchProcs, benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1Discrepancy regenerates Figure 1 (fine-vs-coarse counter
// discrepancy, bordereau).
func BenchmarkFigure1Discrepancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FigureDiscrepancy(ground.Bordereau(), experiments.OldPipeline, benchClasses(), benchProcs, benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Discrepancy regenerates Figure 2 (fine-vs-coarse,
// graphene, incl. 128 procs).
func BenchmarkFigure2Discrepancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FigureDiscrepancy(ground.Graphene(), experiments.OldPipeline, benchClasses(), []int{8, 128}, benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3OldPipeline regenerates Figure 3 (accuracy of the first
// implementation, bordereau).
func BenchmarkFigure3OldPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FigureAccuracy(ground.Bordereau(), experiments.OldPipeline, benchClasses(), benchProcs, benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4Discrepancy regenerates Figure 4 (minimal-vs-coarse,
// bordereau).
func BenchmarkFigure4Discrepancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FigureDiscrepancy(ground.Bordereau(), experiments.NewPipeline, benchClasses(), benchProcs, benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Discrepancy regenerates Figure 5 (minimal-vs-coarse,
// graphene).
func BenchmarkFigure5Discrepancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FigureDiscrepancy(ground.Graphene(), experiments.NewPipeline, benchClasses(), []int{8, 128}, benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6NewPipeline regenerates Figure 6 (accuracy of the new
// implementation, bordereau).
func BenchmarkFigure6NewPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FigureAccuracy(ground.Bordereau(), experiments.NewPipeline, benchClasses(), benchProcs, benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7NewPipeline regenerates Figure 7 (accuracy of the new
// implementation, graphene).
func BenchmarkFigure7NewPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FigureAccuracy(ground.Graphene(), experiments.NewPipeline, benchClasses(), benchProcs, benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// replayBench measures raw replay throughput for one backend.
func replayBench(b *testing.B, backend tireplay.ReplayConfig) {
	b.ReportAllocs()
	var actions int64
	for i := 0; i < b.N; i++ {
		lu, err := tireplay.NewLU(tireplay.ClassA, 16, 5)
		if err != nil {
			b.Fatal(err)
		}
		spec := facadePlatformSpec(16)
		spec.Name, spec.Speed = "bench", 2.5e9
		plat := facadePlatform(b, spec)
		res, err := tireplay.Replay(tireplay.PerfectTrace(lu), plat, backend)
		if err != nil {
			b.Fatal(err)
		}
		actions = res.Actions
	}
	b.ReportMetric(float64(actions)*float64(b.N)/b.Elapsed().Seconds(), "actions/s")
}

// BenchmarkReplayEngineSMPI measures the accurate backend's throughput on
// LU A-16 (the efficiency axis of the paper's title).
func BenchmarkReplayEngineSMPI(b *testing.B) {
	replayBench(b, tireplay.ReplayConfig{Backend: tireplay.SMPI})
}

// BenchmarkReplayEngineMSG measures the legacy backend's throughput.
func BenchmarkReplayEngineMSG(b *testing.B) {
	replayBench(b, tireplay.ReplayConfig{
		Backend: tireplay.MSG,
		MSG:     tireplay.MSGPrototypeConfig(),
	})
}

// BenchmarkTraceGeneration measures the LU op-stream generator.
func BenchmarkTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lu, err := tireplay.NewLU(tireplay.ClassB, 8, 5)
		if err != nil {
			b.Fatal(err)
		}
		prov := tireplay.PerfectTrace(lu)
		var a tireplay.Action
		for rank := 0; rank < 8; rank++ {
			st, err := prov.Rank(rank)
			if err != nil {
				b.Fatal(err)
			}
			for {
				ok, err := st.Next(&a)
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
			}
		}
	}
}

// BenchmarkGroundEmulation measures the ground-truth cluster emulation
// (B-8, uninstrumented) — the cost of one "real execution".
func BenchmarkGroundEmulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lu, err := tireplay.NewLU(tireplay.ClassB, 8, 3)
		if err != nil {
			b.Fatal(err)
		}
		cluster := tireplay.Bordereau()
		if _, err := cluster.Run(lu, cluster.InstrConfig(tireplay.Uninstrumented, tireplay.CompileO0, tireplay.ClassB)); err != nil {
			b.Fatal(err)
		}
	}
}
