// Rebuild: fail a member SSD under live load and compare user response
// times during RAID reconstruction across the paper's Figure 11 variants —
// the baselines rebuilding to a spare, and GC-Steering rebuilding into its
// staging space (§III-D case ②): the dedicated staging SSD (Dedicated) or,
// in parallel, the survivors' reserved space (Reserved). The failure and
// the automatic repair are a fault plan (Config.Fault) that Replay
// executes, the same machinery the reliability experiments use.
//
//	go run ./examples/rebuild
package main

import (
	"fmt"
	"log"

	"gcsteering"
)

func main() {
	const workload = "hm_0"
	const requests = 5000
	const failDisk = 2

	type variant struct {
		name   string
		scheme gcsteering.Scheme
		stag   gcsteering.StagingKind
		target gcsteering.RebuildTarget
	}
	variants := []variant{
		{"LGC + spare", gcsteering.SchemeLGC, gcsteering.StagingReserved, gcsteering.RebuildToSpare},
		{"GGC + spare", gcsteering.SchemeGGC, gcsteering.StagingReserved, gcsteering.RebuildToSpare},
		{"Steering/Reserved", gcsteering.SchemeSteering, gcsteering.StagingReserved, gcsteering.RebuildToStaging},
		{"Steering/Dedicated", gcsteering.SchemeSteering, gcsteering.StagingDedicated, gcsteering.RebuildToStaging},
	}

	fmt.Printf("Failing SSD %d and reconstructing under the %s workload\n\n", failDisk, workload)
	fmt.Printf("%-20s %14s %14s %10s %10s\n", "variant", "normal mean", "rebuild mean", "ratio", "rebuild")
	for _, v := range variants {
		cfg := gcsteering.DefaultConfig()
		cfg.Scheme = v.scheme
		cfg.Staging = v.stag
		cfg.ReservedFrac = 0.30 // enough reserved space to hold a member's share

		// Run 1: normal state (no failure) for the baseline mean.
		normalSys, err := gcsteering.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := normalSys.GenerateWorkload(workload, requests)
		if err != nil {
			log.Fatal(err)
		}
		normal, err := normalSys.Replay(tr)
		if err != nil {
			log.Fatal(err)
		}

		// Run 2: the same trace under a fault plan that fails the disk at
		// t=0 and paces the reconstruction to span the replay (the paper
		// rebuilds 120 GB at 10 MB/s — hours — so recovery is always under
		// way during the trace).
		dur := tr[len(tr)-1].Timestamp.Seconds()
		cfg.Fault = gcsteering.FaultPlan{
			Failures:      []gcsteering.DiskFault{{Disk: failDisk, AtMs: 0}},
			RebuildMBps:   float64(normalSys.Capacity()) / 4 / 1e6 / dur,
			RebuildTarget: v.target,
		}
		rebSys, err := gcsteering.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		reb, err := rebSys.Replay(tr)
		if err != nil {
			log.Fatal(err)
		}

		// DegradedLatency covers exactly the requests submitted while the
		// reconstruction was under way — Fig. 11's measurement window.
		fmt.Printf("%-20s %12.1fµs %12.1fµs %9.2fx %9.1fs\n",
			v.name,
			normal.Latency.Mean/1e3,
			reb.Fault.DegradedLatency.Mean/1e3,
			reb.Fault.DegradedLatency.Mean/normal.Latency.Mean,
			reb.Fault.RebuildTime.Seconds())
	}
	fmt.Println("\nThe ratio column is Fig. 11's metric: response time during reconstruction")
	fmt.Println("normalized to the same scheme's no-rebuild state. Note the Reserved variant:")
	fmt.Println("at simulation scale, packing a member's contents into the survivors' reserved")
	fmt.Println("space drives their flash utilization (and GC) up — see EXPERIMENTS.md for why")
	fmt.Println("this deviates from the paper's testbed result.")
}
