package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// table is the JSON half of a figures golden file.
type table struct {
	Rows  []string    `json:"rows"`
	Cols  []string    `json:"cols"`
	Cells [][]float64 `json:"cells"`
}

// parseGolden reads a figures golden file: the rendered text table, then the
// same table as one JSON object starting on a line of its own.
func parseGolden(data []byte) (*table, error) {
	i := bytes.Index(data, []byte("\n{"))
	if i < 0 {
		return nil, errors.New("golden file holds no JSON table")
	}
	var t table
	if err := json.Unmarshal(data[i+1:], &t); err != nil {
		return nil, fmt.Errorf("golden JSON table: %w", err)
	}
	if len(t.Cells) != len(t.Rows) {
		return nil, fmt.Errorf("golden table has %d rows but %d cell rows", len(t.Rows), len(t.Cells))
	}
	for r, row := range t.Cells {
		if len(row) != len(t.Cols) {
			return nil, fmt.Errorf("golden row %q has %d cells, want %d", t.Rows[r], len(row), len(t.Cols))
		}
	}
	return &t, nil
}

// references are the reference-seed expectations of the two sweeps.
type references struct {
	fig5  *table    // Figure 5 effective delays, from the figures golden file
	scale []float64 // scale_commgroups effective delays in cell order, in seconds
}

// Reference files, relative to the root of the checkout the benchmark runs
// in. The Figure 5 golden table is the one the figures tests pin.
const (
	goldenPath = "internal/figures/testdata/fig5.golden"
	scalePath  = "perfbench/testdata/scale_commgroups.json"
)

// loadReferences reads the expectations the workload needs at the reference
// seed.
func loadReferences(workload string) (references, error) {
	var ref references
	switch workload {
	case "paper_hpl":
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			return ref, err
		}
		if ref.fig5, err = parseGolden(data); err != nil {
			return ref, fmt.Errorf("%s: %w", goldenPath, err)
		}
	case "scale_commgroups":
		data, err := os.ReadFile(scalePath)
		if err != nil {
			return ref, err
		}
		if err := json.Unmarshal(data, &ref.scale); err != nil {
			return ref, fmt.Errorf("%s: %w", scalePath, err)
		}
	}
	return ref, nil
}
