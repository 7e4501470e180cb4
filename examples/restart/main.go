// Restart example: run a ring application with group-based checkpointing
// through harness.RunScenario, lose the whole job to a scripted crash at 3s,
// restart every rank from the protocol's recovery line (the latest committed
// epoch, taken group by group, so the snapshots were written at different
// wall-clock times), and verify the finished execution produces exactly the
// failure-free results.
package main

import (
	"fmt"
	"os"

	"gbcr/internal/fault"
	"gbcr/internal/harness"
	"gbcr/internal/sim"
	"gbcr/internal/workload"
)

func main() {
	const n, iters = 8, 80
	cfg := harness.PaperCluster(n)
	cfg.CR.GroupSize = 2
	cfg.CR.LocalSetup = 50 * sim.Millisecond
	w := workload.Ring{N: n, Iters: iters, Chunk: 50 * sim.Millisecond, FootprintMB: 16}

	// Failure-free reference.
	ref, err := harness.NewCluster(cfg)
	if err != nil {
		panic(err)
	}
	launched, err := w.Launch(ref.Job)
	if err != nil {
		panic(err)
	}
	refInst := launched.(*workload.RingInstance)
	if err := ref.K.Run(); err != nil {
		panic(err)
	}
	fmt.Printf("failure-free run finished at %v\n", ref.Job.FinishTime())

	// Checkpoint every second, lose the whole job at 3s, restart from
	// storage and run to completion.
	scn, err := fault.Parse("crash@3s")
	if err != nil {
		panic(err)
	}
	res, err := harness.RunScenario(cfg, w, scn, sim.Second, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("job killed at 3s; %d of %d ranks restarted from snapshots in central storage\n",
		res.RecoveredCentral, n)
	fmt.Printf("failures survived: %d, checkpoints committed: %d\n", res.Failures, res.Checkpoints)
	fmt.Printf("wall time to finish, lost work and read-back included: %v\n", res.Wall)

	inst := res.FinalInst.(*workload.RingInstance)
	ok := true
	for me := 0; me < n; me++ {
		if inst.Sums[me] != refInst.Sums[me] {
			ok = false
			fmt.Printf("  rank %d MISMATCH: %d vs %d\n", me, inst.Sums[me], refInst.Sums[me])
		}
	}
	if !ok {
		os.Exit(1)
	}
	fmt.Println("all ranks' results identical to the failure-free run: the")
	fmt.Println("staggered group-by-group snapshots form a consistent recovery line")
}
