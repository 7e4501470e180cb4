package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles the test binary as the ckptsim command: with
// CKPTSIM_RUN_MAIN=1 in the environment it runs main on its arguments, so
// the tests below can observe real exit codes and stderr.
func TestMain(m *testing.M) {
	if os.Getenv("CKPTSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ckptsim runs the command with args and returns its stdout, stderr and exit
// code.
func ckptsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CKPTSIM_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("running ckptsim %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

// small keeps any run a rejected flag might accidentally start short.
var small = []string{"-workload", "commgroups", "-n", "4", "-comm", "2", "-group", "2",
	"-iters", "20", "-footprint", "1"}

// TestRejectsBadTimeFlags pins that every time flag fails with exit status 1
// and a one-line message on values that are not a finite, non-negative time
// in sim.Time's range — instead of overflowing the clock, silently running
// a failure-free cell, or falling back to the automatic interval.
func TestRejectsBadTimeFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		msg  string
	}{
		{"at NaN", []string{"-at", "NaN"}, "-at: NaN is not a finite time"},
		{"at Inf", []string{"-at", "Inf"}, "-at: +Inf is not a finite time"},
		{"at -Inf", []string{"-at", "-Inf"}, "-at: -Inf is not a finite time"},
		{"at overflow", []string{"-at", "1e300"}, "-at: 1e+300 is not a finite time"},
		{"at NaN in list", []string{"-at", "1,NaN"}, "-at: NaN is not a finite time"},
		{"at negative", []string{"-at", "-1"}, "-at must not be negative"},
		{"at not a number", []string{"-at", "soon"}, `-at: "soon" is not a number`},
		{"mtbf NaN", []string{"-workload", "ring", "-mtbf", "NaN"}, "-mtbf: NaN is not a finite time"},
		{"mtbf Inf", []string{"-workload", "ring", "-mtbf", "Inf"}, "-mtbf: +Inf is not a finite time"},
		{"mtbf overflow", []string{"-workload", "ring", "-mtbf", "1e300"}, "-mtbf: 1e+300 is not a finite time"},
		{"mtbf negative", []string{"-workload", "ring", "-mtbf", "-5"}, "-mtbf must not be negative"},
		{"interval NaN", []string{"-workload", "ring", "-interval", "NaN", "-mtbf", "5"}, "-interval: NaN is not a finite time"},
		{"interval Inf", []string{"-workload", "ring", "-interval", "Inf", "-mtbf", "5"}, "-interval: +Inf is not a finite time"},
		{"interval negative", []string{"-workload", "ring", "-interval", "-1", "-mtbf", "5"}, "-interval must not be negative"},
		{"workers negative", []string{"-at", "1,2", "-workers", "-1"}, "-workers must not be negative"},
		{"workers on failure run", []string{"-workload", "ring", "-mtbf", "5", "-workers", "2"}, "do not apply to failure runs"},
		{"at list with -v", []string{"-at", "1,2", "-v"}, "-v only applies to single-cell runs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append(append([]string(nil), small...), tc.args...)
			if tc.args[0] == "-workload" {
				args = append([]string{"-n", "4", "-iters", "20", "-footprint", "1"}, tc.args...)
			}
			stdout, stderr, code := ckptsim(t, args...)
			if code != 1 {
				t.Fatalf("exit code %d, want 1 (stdout %q, stderr %q)", code, stdout, stderr)
			}
			if stdout != "" {
				t.Errorf("stdout not empty: %q", stdout)
			}
			if !strings.HasPrefix(stderr, "ckptsim: ") || strings.Count(stderr, "\n") != 1 {
				t.Errorf("want one line starting with %q, got %q", "ckptsim: ", stderr)
			}
			if !strings.Contains(stderr, tc.msg) {
				t.Errorf("stderr %q does not mention %q", stderr, tc.msg)
			}
		})
	}
}

// TestAtListOnWorkerPool runs a two-cell -at list on the worker pool and
// checks that the merged Chrome trace names one process per cell.
func TestAtListOnWorkerPool(t *testing.T) {
	chrome := filepath.Join(t.TempDir(), "trace.json")
	args := append(append([]string(nil), small...), "-at", "0.5,1", "-workers", "2", "-trace-chrome", chrome)
	stdout, stderr, code := ckptsim(t, args...)
	if code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "over 2 cells") || !strings.Contains(stdout, "cell 1: at=1s") {
		t.Fatalf("missing per-cell report:\n%s", stdout)
	}
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("Chrome trace is not JSON: %v", err)
	}
	procs := map[int]string{}
	for _, e := range trace.TraceEvents {
		if e.Name == "process_name" {
			procs[e.PID], _ = e.Args["name"].(string)
		}
	}
	if len(procs) != 2 || !strings.HasPrefix(procs[1], "cell 0: ") || !strings.HasPrefix(procs[2], "cell 1: ") {
		t.Fatalf("want one Chrome process per cell, got %v", procs)
	}
}
