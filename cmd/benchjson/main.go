// Command benchjson converts `go test -bench` text output on stdin into a
// machine-readable JSON document on stdout (or -o file). Every metric a
// benchmark reports — the standard ns/op and B/op as well as the custom
// sim-time metrics emitted via b.ReportMetric — is preserved in order.
//
// Usage:
//
//	go test -bench=. -benchtime=1x ./... | go run ./cmd/benchjson -o BENCH_results.json
//
// Lines that are not benchmark results (goos/pkg headers, PASS/ok trailers)
// select the current package context or are ignored. A failed benchmark run
// (no result lines, or a line containing "FAIL") exits with status 1.
//
// The output carries a "meta" section recording GOMAXPROCS and the CPU
// count, and every benchmark BenchmarkX with a BenchmarkXSerial sibling gets
// a derived speedup-vs-serial metric computed from the sibling's ns/op.
//
// -prev FILE annotates every metric with its value from a previous results
// file (matched by package, benchmark, and unit), recording the perf
// trajectory in the committed results:
//
//	go test -bench=. ./... | benchjson -prev BENCH_results.json -o BENCH_results.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// metricJSON is one "value unit" pair from a benchmark result line. Prev is
// the same metric's value from a previous results file (-prev), so a
// committed BENCH_results.json carries its own before/after trajectory.
type metricJSON struct {
	Unit  string   `json:"unit"`
	Value float64  `json:"value"`
	Prev  *float64 `json:"prev,omitempty"`
}

// benchJSON is one benchmark result.
type benchJSON struct {
	Package    string       `json:"package"`
	Name       string       `json:"name"`
	Iterations int64        `json:"iterations"`
	Metrics    []metricJSON `json:"metrics"`
}

// metaJSON records the machine context of the run, so a committed results
// file is honest about what the parallel numbers mean: a speedup-vs-serial
// near 1.0 on a 1-CPU host measures coordination overhead, not a failure to
// scale.
type metaJSON struct {
	GoMaxProcs int `json:"gomaxprocs"`
	NumCPU     int `json:"numcpu"`
}

// document is the top-level output shape.
type document struct {
	Meta       *metaJSON   `json:"meta,omitempty"`
	Benchmarks []benchJSON `json:"benchmarks"`
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}

// parseLine parses one `go test -bench` result line:
//
//	BenchmarkName-8   1   123456 ns/op   42.0 custom-unit
//
// It returns false for lines that are not benchmark results.
func parseLine(pkg, line string) (benchJSON, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return benchJSON{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchJSON{}, false
	}
	b := benchJSON{Package: pkg, Name: fields[0], Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		b.Metrics = append(b.Metrics, metricJSON{Unit: fields[i+1], Value: v})
	}
	return b, len(b.Metrics) > 0
}

// parse reads the full bench output and collects every result line.
func parse(r io.Reader) (document, error) {
	var doc document
	pkg := ""
	failed := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if strings.HasPrefix(line, "FAIL") || strings.Contains(line, "--- FAIL") {
			failed = true
			continue
		}
		if b, ok := parseLine(pkg, line); ok {
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return doc, err
	}
	if failed {
		return doc, fmt.Errorf("bench run reported FAIL")
	}
	if len(doc.Benchmarks) == 0 {
		return doc, fmt.Errorf("no benchmark result lines found on stdin")
	}
	return doc, nil
}

// annotatePrev copies each metric's value from a previous document into the
// matching metric's Prev field, keyed by (package, benchmark name, unit).
// Benchmarks or units absent from the previous run are left unannotated.
func annotatePrev(doc *document, prev document) {
	type key struct{ pkg, name, unit string }
	old := make(map[key]float64)
	for _, b := range prev.Benchmarks {
		for _, m := range b.Metrics {
			old[key{b.Package, b.Name, m.Unit}] = m.Value
		}
	}
	for i := range doc.Benchmarks {
		b := &doc.Benchmarks[i]
		for j := range b.Metrics {
			if v, ok := old[key{b.Package, b.Name, b.Metrics[j].Unit}]; ok {
				v := v
				b.Metrics[j].Prev = &v
			}
		}
	}
}

// serialSibling returns the name of the serial twin a benchmark is
// measured against: BenchmarkX pairs with BenchmarkXSerial. The suffix goes
// on the top-level name, before any "/sub" part or -GOMAXPROCS suffix,
// which are preserved so siblings never match across different GOMAXPROCS
// runs. A benchmark that is itself a Serial twin has no sibling ("").
func serialSibling(name string) string {
	split := strings.IndexByte(name, '/')
	if split < 0 {
		split = strings.LastIndexByte(name, '-')
	}
	if split < 0 {
		split = len(name)
	}
	if strings.HasSuffix(name[:split], "Serial") {
		return ""
	}
	return name[:split] + "Serial" + name[split:]
}

// deriveSpeedups appends a speedup-vs-serial metric to every benchmark with
// a serial sibling in the same package: the sibling's ns/op
// divided by the benchmark's own. Derived before -prev annotation, so the
// committed results also carry the speedup trajectory.
func deriveSpeedups(doc *document) {
	type key struct{ pkg, name string }
	nsOf := make(map[key]float64)
	for _, b := range doc.Benchmarks {
		for _, m := range b.Metrics {
			if m.Unit == "ns/op" {
				nsOf[key{b.Package, b.Name}] = m.Value
				break
			}
		}
	}
	for i := range doc.Benchmarks {
		b := &doc.Benchmarks[i]
		serial := serialSibling(b.Name)
		if serial == "" {
			continue
		}
		base, ok := nsOf[key{b.Package, serial}]
		own := nsOf[key{b.Package, b.Name}]
		if !ok || base <= 0 || own <= 0 {
			continue
		}
		b.Metrics = append(b.Metrics, metricJSON{Unit: "speedup-vs-serial", Value: base / own})
	}
}

// buildMeta records the converter's machine context. benchjson runs in the
// same pipeline (and so on the same machine) as the bench run itself.
func buildMeta() *metaJSON {
	return &metaJSON{GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
}

func main() {
	out := flag.String("o", "", "write JSON to this file instead of stdout")
	prevPath := flag.String("prev", "", "previous results JSON; annotates each metric with its prior value")
	flag.Parse()
	// Read the previous results before -o truncates anything: the common
	// trajectory flow is `-prev BENCH_results.json -o BENCH_results.json`.
	var prev document
	havePrev := false
	if *prevPath != "" {
		data, err := os.ReadFile(*prevPath)
		if err != nil {
			fail("%v", err)
		}
		if err := json.Unmarshal(data, &prev); err != nil {
			fail("parsing %s: %v", *prevPath, err)
		}
		havePrev = true
	}
	doc, err := parse(os.Stdin)
	if err != nil {
		fail("%v", err)
	}
	deriveSpeedups(&doc)
	doc.Meta = buildMeta()
	if havePrev {
		annotatePrev(&doc, prev)
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fail("%v", err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks\n", len(doc.Benchmarks))
}
