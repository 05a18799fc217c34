// Quickstart: generate a small LU trace, write it to disk in the
// time-independent text format, load it back, and replay it on a simulated
// 8-node cluster — the minimal end-to-end tour of the framework.
package main

import (
	"fmt"
	"log"
	"os"

	"tireplay"
)

func main() {
	// 1. A workload: NAS LU, class S, 8 processes, 10 SSOR iterations.
	lu, err := tireplay.NewLU(tireplay.ClassS, 8, 10)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Its time-independent trace (volumes only, no timestamps).
	actions, err := tireplay.Materialize(tireplay.PerfectTrace(lu))
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "tireplay-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	desc, err := tireplay.WriteTraces(dir, "lu_s8", actions)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("trace description written to", desc)

	// 3. Load it back and sanity-check it.
	prov, err := tireplay.LoadTraces(desc, 8)
	if err != nil {
		log.Fatal(err)
	}
	if err := tireplay.ValidateTraces(prov); err != nil {
		log.Fatal(err)
	}
	stats, err := tireplay.CollectTraceStats(prov, 65536)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d ranks, %.3g instructions, %d p2p messages (%d eager)\n",
		stats.Ranks, stats.Instructions, stats.P2PMessages, stats.EagerMessages)

	// 4. Describe the target platform: 8 nodes at 2 Ginstr/s behind a
	// gigabit switch. The spec has no network factors, so model is nil.
	spec := tireplay.PlatformSpec{
		Name: "target", Topology: "flat", Hosts: 8, Speed: 2e9,
		LinkBandwidth: 1.25e8, LinkLatency: 2e-5,
		BackboneBandwidth: 1.25e9, BackboneLatency: 1e-6,
	}
	plat, model, err := spec.Build()
	if err != nil {
		log.Fatal(err)
	}

	// 5. Replay: the trace must be re-opened since streams are one-shot.
	prov, err = tireplay.LoadTraces(desc, 8)
	if err != nil {
		log.Fatal(err)
	}
	res, err := tireplay.Replay(prov, plat, tireplay.ReplayConfig{Backend: tireplay.SMPI, Network: model})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predicted execution time: %.4f s (replayed %d actions in %v)\n",
		res.SimulatedTime, res.Actions, res.Wall)
}
