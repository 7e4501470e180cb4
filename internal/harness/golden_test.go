package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gbcr/internal/cr"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// goldenCycle runs one observed default-path checkpointed measurement and
// returns the JSONL event trace plus a JSON dump of the cycle report.
func goldenCycle(t *testing.T, groupSize int) (trace, report []byte) {
	t.Helper()
	const n = 4
	cfg := smallCluster(n)
	cfg.CR.GroupSize = groupSize
	cfg.CR.DefaultFootprint = 20 << 20
	w := workload.CommGroups{N: n, CommGroupSize: 2, Iters: 60,
		Chunk: 50 * sim.Millisecond, FootprintMB: 20}
	var buf bytes.Buffer
	js := obs.NewJSONL(&buf)
	res, err := NewRunner(1).MeasureObserved(cfg, w, 1*sim.Second, obs.NewBus(js))
	if err != nil {
		t.Fatal(err)
	}
	if js.Err() != nil {
		t.Fatal(js.Err())
	}
	rep, err := json.MarshalIndent(struct {
		Cycle     int
		Groups    [][]int
		RequestAt sim.Time
		DoneAt    sim.Time
		DrainedAt sim.Time
		Records   []cr.CkptRecord
	}{res.Report.Cycle, res.Report.Groups, res.Report.RequestAt,
		res.Report.DoneAt, res.Report.DrainedAt, res.Report.Records}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), append(rep, '\n')
}

// TestWholeJobPathGolden pins the group=0 and group=n configurations — the
// runs that the explicit whole-job protocol now serves — byte-for-byte
// against traces and cycle reports captured before coordination moved behind
// the Protocol interface. Any drift in event wording, ordering, timing, or
// per-rank records is a regression. Regenerate deliberately with
// `go test ./internal/harness -run Golden -update`.
func TestWholeJobPathGolden(t *testing.T) {
	for _, gs := range []int{0, 4} {
		gs := gs
		t.Run(fmt.Sprintf("group=%d", gs), func(t *testing.T) {
			trace, rep := goldenCycle(t, gs)
			for _, out := range []struct {
				suffix string
				got    []byte
			}{
				{"trace.jsonl", trace},
				{"report.json", rep},
			} {
				suffix, got := out.suffix, out.got
				path := filepath.Join("testdata", fmt.Sprintf("default_g%d.%s", gs, suffix))
				if *updateGolden {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (run with -update to create): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s diverged from pre-refactor golden (%d vs %d bytes)",
						path, len(got), len(want))
				}
			}
		})
	}
}
