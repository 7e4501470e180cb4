// MotifMiner example: first run the real parallel frequent-substructure
// miner and compare it against a serial reference, then sweep checkpoint
// group sizes on the paper's timed model (the Figure 7 experiment at one
// issuance point).
package main

import (
	"fmt"

	"gbcr/internal/harness"
	"gbcr/internal/sim"
	"gbcr/internal/workload/motif"
)

func main() {
	// Part 1: real mining across 8 ranks, validated against a serial run.
	mine := motif.Mine{Graphs: 48, Vertices: 14, Degree: 3, Labels: 5,
		MinSup: 16, MaxLen: 3, Seed: 7}
	c, err := harness.NewCluster(harness.PaperCluster(8))
	if err != nil {
		panic(err)
	}
	launched, err := mine.Launch(c.Job)
	if err != nil {
		panic(err)
	}
	inst := launched.(*motif.MineInstance)
	if err := c.K.Run(); err != nil {
		panic(err)
	}
	serial := mine.MineSerial()
	match := len(serial) == len(inst.Frequent)
	for k, v := range serial {
		if inst.Frequent[k] != v {
			match = false
		}
	}
	fmt.Printf("real miner %s: %d frequent patterns, parallel==serial: %v\n",
		mine.Name(), len(inst.Frequent), match)
	for _, p := range inst.SortedPatterns()[:min(5, len(inst.Frequent))] {
		fmt.Printf("  pattern %-12s support %d/%d\n", p, inst.Frequent[p], mine.Graphs)
	}

	// Part 2: the paper's timed run, checkpointed at t=30s (the point of
	// the paper's headline 70% reduction for group size 4).
	w := motif.PaperTimed()
	cfg := harness.PaperCluster(w.N)
	r := harness.NewRunner(0)
	base, err := r.Baseline(cfg, w)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ntimed MotifMiner (%s), baseline completion %v\n", w.Name(), base)
	fmt.Println("checkpoint at t=30s:")
	for _, gs := range []int{0, 16, 8, 4, 2, 1} {
		run := cfg
		run.CR.GroupSize = gs
		res, err := r.Measure(run, w, 30*sim.Second)
		if err != nil {
			panic(err)
		}
		label := "All(32)   "
		if gs > 0 {
			label = fmt.Sprintf("Group(%-2d) ", gs)
		}
		fmt.Printf("  %s effective delay %8v   individual %8v   total %8v\n",
			label, res.EffectiveDelay(), res.MaxIndividual(), res.Total())
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
