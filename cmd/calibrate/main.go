// Command calibrate runs the paper's two calibration procedures against an
// emulated cluster and prints the measured instruction rates: the classic
// A-4-only rate of the first implementation and the cache-aware per-class
// rates of Section 3.4.
//
// Usage:
//
//	calibrate -cluster bordereau [-iters 5] [-classes BC]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"tireplay"
	"tireplay/internal/ground"
	"tireplay/internal/npb"
)

func main() {
	clusterName := flag.String("cluster", "bordereau", "bordereau or graphene")
	iters := flag.Int("iters", 5, "iterations per calibration run")
	classesStr := flag.String("classes", "BC", "classes for the cache-aware procedure")
	flag.Parse()

	cluster, err := ground.Lookup(*clusterName)
	fatal(err)
	// Every class is validated before the first calibration run, and a
	// repeated one is measured once.
	var classes []tireplay.NPBClass
	for _, ch := range *classesStr {
		class, err := npb.ParseClass(string(ch))
		fatal(err)
		if !slices.Contains(classes, class) {
			classes = append(classes, class)
		}
	}

	fmt.Printf("calibrating on %s (nominal in-cache rate %.4g instr/s, L2 %d KiB)\n",
		cluster.Name, cluster.BaseRate, int(cluster.L2Bytes/1024))

	classic, err := tireplay.CalibrateClassic(cluster, *iters)
	fatal(err)
	fmt.Printf("classic A-4 rate (fine,-O0 counters / original compute time): %.4g instr/s (%+.1f%% vs nominal)\n",
		classic, 100*(classic/cluster.BaseRate-1))

	ca, err := tireplay.CalibrateCacheAware(cluster, classes, *iters)
	fatal(err)
	fmt.Printf("cache-aware rates (minimal,-O3):\n")
	fmt.Printf("  A-4 (in cache):   %.4g instr/s\n", ca.ARate)
	for _, class := range classes {
		rate := ca.ClassRates[class]
		fmt.Printf("  %s-4:              %.4g instr/s (%+.1f%% vs A-4)\n",
			string(class), rate, 100*(rate/ca.ARate-1))
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
}
