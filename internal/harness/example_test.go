package harness_test

import (
	"fmt"

	"gbcr/internal/harness"
	"gbcr/internal/sim"
	"gbcr/internal/storage"
	"gbcr/internal/workload"
)

// Measure the Effective Checkpoint Delay of a group-based checkpoint on a
// compute-heavy workload: only two ranks write at a time, so each rank's
// downtime is far below the all-at-once stall.
func Example() {
	cfg := harness.PaperCluster(8)
	cfg.Storage = storage.Config{AggregateBW: 100 << 20, ClientBW: 100 << 20}
	cfg.CR.GroupSize = 2
	cfg.CR.LocalSetup = 0
	w := workload.CommGroups{
		N: 8, CommGroupSize: 2, Iters: 100,
		Chunk: 100 * sim.Millisecond, FootprintMB: 100,
	}
	res, err := harness.NewRunner(0).Measure(cfg, w, 2*sim.Second)
	if err != nil {
		fmt.Println("measure failed:", err)
		return
	}
	fmt.Printf("baseline %.1fs, effective delay %.1fs, total ckpt %.1fs\n",
		res.Baseline.Seconds(), res.EffectiveDelay().Seconds(), res.Total().Seconds())
	// Output:
	// baseline 10.0s, effective delay 2.0s, total ckpt 8.0s
}
