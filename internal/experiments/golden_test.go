package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"tireplay/internal/ground"
	"tireplay/internal/npb"
)

// The paper golden corpus pins every experiment row of a reduced-scale
// campaign — both clusters, classes B and C, 8 and 16 ranks — bit for bit:
// each emulated, simulated and derived value as its IEEE-754 bits in hex,
// each count in decimal and each sweep point's fingerprint verbatim. No
// wall-clock value is stored. The same rows then gate the paper's accuracy
// claims that hold at this scale. Regenerate only for an intended change of
// behaviour:
//
//	go test ./internal/experiments -run PaperGolden -update

var update = flag.Bool("update", false, "rewrite the golden corpus under testdata/")

const paperGoldenPath = "testdata/paper_golden.json"

var (
	goldenOpt     = Options{Iterations: 2, CalibrationIterations: 2}
	goldenClasses = []npb.Class{npb.ClassB, npb.ClassC}
	goldenProcs   = []int{8, 16}
)

// paperGolden is one corpus entry: a row name and its values by field.
type paperGolden struct {
	Name   string            `json:"name"`
	Values map[string]string `json:"values"`
}

func hexBits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// paperRows holds the recomputed rows the claims are checked on.
type paperRows struct {
	overhead    map[string][]OverheadRow    // by cluster
	discrepancy map[string][]DiscrepancyRow // by generation/cluster
	accuracy    map[string][]AccuracyRow    // by generation/cluster
	ablation    map[string][]AblationRow    // by cluster
	memcpy      map[string][]AblationRow    // by cluster
	decoupling  []DecouplingRow
}

// paperGoldenRuns runs every corpus experiment in a fixed order.
func paperGoldenRuns(t *testing.T) ([]paperGolden, paperRows) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	rows := paperRows{
		overhead:    map[string][]OverheadRow{},
		discrepancy: map[string][]DiscrepancyRow{},
		accuracy:    map[string][]AccuracyRow{},
		ablation:    map[string][]AblationRow{},
		memcpy:      map[string][]AblationRow{},
	}
	var out []paperGolden
	add := func(name string, kv ...any) {
		g := paperGolden{Name: name, Values: map[string]string{}}
		for i := 0; i < len(kv); i += 2 {
			switch v := kv[i+1].(type) {
			case float64:
				g.Values[kv[i].(string)] = hexBits(v)
			default:
				g.Values[kv[i].(string)] = fmt.Sprint(v)
			}
		}
		out = append(out, g)
	}
	generations := []struct {
		name string
		pipe PipelineConfig
	}{{"old", OldPipeline}, {"new", NewPipeline}}

	for _, c := range []*ground.Cluster{ground.Bordereau(), ground.Graphene()} {
		ovh, err := TableOverhead(c, goldenClasses, goldenProcs, goldenOpt)
		must(err)
		rows.overhead[c.Name] = ovh
		for _, r := range ovh {
			add("overhead/"+c.Name+"/"+r.Instance,
				"old_orig", r.OldOrig, "old_instr", r.OldInstr, "old_overhead_pct", r.OldOverheadPct,
				"new_orig", r.NewOrig, "new_instr", r.NewInstr, "new_overhead_pct", r.NewOverheadPct)
		}
		for _, gen := range generations {
			key := gen.name + "/" + c.Name
			dis, err := FigureDiscrepancy(c, gen.pipe, goldenClasses, goldenProcs, goldenOpt)
			must(err)
			rows.discrepancy[key] = dis
			for _, r := range dis {
				d := r.Dist
				add("discrepancy/"+key+"/"+r.Instance, "n", d.N,
					"min", d.Min, "q1", d.Q1, "median", d.Median, "q3", d.Q3, "max", d.Max, "mean", d.Mean)
			}
			acc, err := FigureAccuracy(c, gen.pipe, goldenClasses, goldenProcs, goldenOpt)
			must(err)
			rows.accuracy[key] = acc
			for _, r := range acc {
				add("accuracy/"+key+"/"+r.Instance,
					"real", r.Real, "sim", r.Sim, "err_pct", r.ErrPct, "actions", r.ReplayActions)
			}
		}
		abl, err := Ablation(c, npb.ClassB, goldenProcs, goldenOpt)
		must(err)
		rows.ablation[c.Name] = abl
		for _, r := range abl {
			add("ablation/"+c.Name+"/"+r.Config+"/"+r.Instance, "err_pct", r.ErrPct)
		}
		mem, err := FutureWorkMemcpy(c, goldenClasses, goldenProcs, goldenOpt)
		must(err)
		rows.memcpy[c.Name] = mem
		for _, r := range mem {
			add("memcpy/"+c.Name+"/"+r.Config+"/"+r.Instance, "err_pct", r.ErrPct)
		}
		for _, class := range goldenClasses {
			eff, err := Efficiency(c, class, goldenProcs, goldenOpt)
			must(err)
			for _, r := range eff {
				add("efficiency/"+c.Name+"/"+r.Instance+"/"+r.Backend, "sim", r.Sim, "actions", r.Actions)
			}
		}
		spec, err := SweepSpec(c, goldenClasses, goldenProcs, goldenOpt)
		must(err)
		points, err := spec.Expand()
		must(err)
		for _, pt := range points {
			add("sweep/"+c.Name+"/"+pt.Scenario.Name, "fingerprint", pt.Fingerprint)
		}
	}

	dec, err := Decoupling(ground.Graphene(),
		[]*ground.Cluster{ground.Graphene(), ground.Bordereau()}, npb.ClassB, 8, goldenOpt)
	must(err)
	rows.decoupling = dec
	for _, r := range dec {
		add("decoupling/graphene/B-8/"+r.AcquiredOn,
			"instructions", r.Instructions, "sim", r.Sim, "delta_pct", r.DeltaPct)
	}
	return out, rows
}

// TestPaperGolden requires every corpus row to reproduce exactly, then
// checks the paper's claims that hold at the corpus scale on the same rows.
func TestPaperGolden(t *testing.T) {
	got, rows := paperGoldenRuns(t)
	if *update {
		var b strings.Builder
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paperGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(paperGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []paperGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]paperGolden, len(want))
	for _, w := range want {
		byName[w.Name] = w
	}
	if len(byName) != len(got) {
		t.Errorf("corpus has %d entries, the campaign %d rows", len(byName), len(got))
	}
	for _, g := range got {
		w, ok := byName[g.Name]
		if !ok {
			t.Errorf("%s: missing from %s (regenerate with -update)", g.Name, paperGoldenPath)
			continue
		}
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if string(gj) != string(wj) {
			t.Errorf("%s diverges from the corpus:\n got: %s\nwant: %s", g.Name, gj, wj)
		}
	}
	checkPaperClaims(t, rows)
}

// checkPaperClaims gates the accuracy, overhead and discrepancy claims of
// the paper that the reduced-scale campaign reproduces.
func checkPaperClaims(t *testing.T, rows paperRows) {
	for _, cluster := range []string{"bordereau", "graphene"} {
		oldRows, newRows := rows.accuracy["old/"+cluster], rows.accuracy["new/"+cluster]
		if len(oldRows) != len(newRows) {
			t.Fatalf("%s: %d old and %d new accuracy rows", cluster, len(oldRows), len(newRows))
		}
		byInstance := map[string]AccuracyRow{}
		for i, o := range oldRows {
			n := newRows[i]
			byInstance[o.Instance] = o
			// Figures 6/7: bounded errors with every fix applied.
			if math.Abs(n.ErrPct) > 12 {
				t.Errorf("%s %s: new pipeline error %+.2f%% outside ±12%%", cluster, n.Instance, n.ErrPct)
			}
			if math.Abs(o.ErrPct) <= math.Abs(n.ErrPct) {
				t.Errorf("%s %s: old error %+.2f%% not further from zero than new %+.2f%%",
					cluster, o.Instance, o.ErrPct, n.ErrPct)
			}
		}
		// Figure 3: the first implementation's error grows with the
		// process count.
		for _, class := range goldenClasses {
			small, large := byInstance[fmt.Sprintf("%s-8", class)], byInstance[fmt.Sprintf("%s-16", class)]
			if large.ErrPct <= small.ErrPct {
				t.Errorf("%s: old error of class %s does not grow from 8 (%+.2f%%) to 16 ranks (%+.2f%%)",
					cluster, class, small.ErrPct, large.ErrPct)
			}
		}
		if cluster == "bordereau" {
			// Figure 3: C-8 spills out of L2, which the A-4 rate hides.
			if c8 := byInstance["C-8"]; c8.ErrPct >= 0 {
				t.Errorf("bordereau old C-8 error %+.2f%%, want an underestimation", c8.ErrPct)
			}
		}

		// Tables 1/2: the new acquisition costs less than the old one.
		for _, r := range rows.overhead[cluster] {
			if r.NewOverheadPct >= r.OldOverheadPct {
				t.Errorf("%s %s: new overhead %.2f%% not below old %.2f%%",
					cluster, r.Instance, r.NewOverheadPct, r.OldOverheadPct)
			}
		}
		// Figures 1/2 and 4/5: fine probes inflate the counters, minimal
		// ones barely do.
		for _, r := range rows.discrepancy["old/"+cluster] {
			if r.Dist.Mean < 10 {
				t.Errorf("%s %s: fine vs coarse mean discrepancy %.2f%% below 10%%", cluster, r.Instance, r.Dist.Mean)
			}
		}
		for _, r := range rows.discrepancy["new/"+cluster] {
			if r.Dist.Mean > 3 {
				t.Errorf("%s %s: minimal vs coarse mean discrepancy %.2f%% above 3%%", cluster, r.Instance, r.Dist.Mean)
			}
		}

		// Section 6: modelling the eager copy raises every prediction.
		mem := rows.memcpy[cluster]
		half := len(mem) / 2
		for i := 0; i < half; i++ {
			without, with := mem[i], mem[half+i]
			if with.ErrPct <= without.ErrPct {
				t.Errorf("%s %s: memcpy model did not raise the prediction: %+.2f%% -> %+.2f%%",
					cluster, with.Instance, without.ErrPct, with.ErrPct)
			}
		}
		// Ablation: the backend swap alone removes most of the error.
		baseline := map[string]float64{}
		for _, r := range rows.ablation[cluster] {
			if r.Config == (PipelineConfig{}).Name() {
				baseline[r.Instance] = r.ErrPct
			}
		}
		for _, r := range rows.ablation[cluster] {
			if r.Config == (PipelineConfig{SMPIBackend: true}).Name() &&
				math.Abs(r.ErrPct) >= math.Abs(baseline[r.Instance])/2 {
				t.Errorf("%s %s: old+smpi error %+.2f%% not below half the baseline's %+.2f%%",
					cluster, r.Instance, r.ErrPct, baseline[r.Instance])
			}
		}
	}
	// Sections 1/6: the prediction does not depend on the acquisition site.
	if d := MaxDecouplingDelta(rows.decoupling); d > 0.5 {
		t.Errorf("decoupling delta %.3f%% above 0.5%%", d)
	}
}
