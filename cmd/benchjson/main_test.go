package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: gbcr
cpu: whatever
BenchmarkFig1StorageBandwidth-8         1        5234129 ns/op            31.52 MB/s/1client         4.41 MB/s/32clients
BenchmarkEmitDisabled-8         1000000000               0.52 ns/op            0 B/op          0 allocs/op
PASS
ok      gbcr    1.234s
pkg: gbcr/internal/obs
BenchmarkEmitMemory-8    5000000               120.0 ns/op
ok      gbcr/internal/obs       0.7s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("benchmarks: %d, want 3", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Package != "gbcr" || b.Name != "BenchmarkFig1StorageBandwidth-8" || b.Iterations != 1 {
		t.Fatalf("first: %+v", b)
	}
	if len(b.Metrics) != 3 || b.Metrics[0].Unit != "ns/op" || b.Metrics[1].Value != 31.52 {
		t.Fatalf("first metrics: %+v", b.Metrics)
	}
	if doc.Benchmarks[2].Package != "gbcr/internal/obs" {
		t.Fatalf("third package: %q", doc.Benchmarks[2].Package)
	}
}

func TestAnnotatePrev(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := 9000.0, 64.0
	prev := document{Benchmarks: []benchJSON{
		{Package: "gbcr", Name: "BenchmarkFig1StorageBandwidth-8", Metrics: []metricJSON{
			{Unit: "ns/op", Value: v1},
			{Unit: "other-unit", Value: 1}, // unit absent from the new run
		}},
		{Package: "gbcr/internal/obs", Name: "BenchmarkEmitMemory-8", Metrics: []metricJSON{
			{Unit: "ns/op", Value: v2},
		}},
	}}
	annotatePrev(&doc, prev)
	m := doc.Benchmarks[0].Metrics
	if m[0].Prev == nil || *m[0].Prev != v1 {
		t.Fatalf("first ns/op prev: %+v", m[0])
	}
	if m[1].Prev != nil {
		t.Fatalf("MB/s metric should have no prev: %+v", m[1])
	}
	// BenchmarkEmitDisabled has no previous entry at all.
	for _, m := range doc.Benchmarks[1].Metrics {
		if m.Prev != nil {
			t.Fatalf("unmatched benchmark got a prev: %+v", m)
		}
	}
	if p := doc.Benchmarks[2].Metrics[0].Prev; p == nil || *p != v2 {
		t.Fatalf("obs ns/op prev: %v", p)
	}
}

func TestParseRejectsFailAndEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("FAIL\tgbcr\t0.1s\nBenchmarkX-8 1 5 ns/op\n")); err == nil {
		t.Fatal("FAIL line not rejected")
	}
	if _, err := parse(strings.NewReader("PASS\nok gbcr 0.1s\n")); err == nil {
		t.Fatal("empty run not rejected")
	}
}

const twinSample = `pkg: gbcr
BenchmarkFig3GroupSizeSerial-4      1        9000000 ns/op
BenchmarkFig3GroupSize-4            1        3000000 ns/op
BenchmarkFig5HPLDelaySerial-4       1        8000000 ns/op
BenchmarkFig5HPLDelay-4             1        2000000 ns/op
BenchmarkFig1StorageBandwidth-4     1        1000000 ns/op
ok      gbcr    1.0s
`

func TestSerialSibling(t *testing.T) {
	cases := []struct{ name, want string }{
		{"BenchmarkFig5HPLDelay-4", "BenchmarkFig5HPLDelaySerial-4"},
		{"BenchmarkFig5HPLDelaySerial-4", ""},
		{"BenchmarkFig5HPLDelay", "BenchmarkFig5HPLDelaySerial"},
		{"BenchmarkFig5HPLDelaySerial", ""},
		{"BenchmarkProcSwitch/n-8-4", "BenchmarkProcSwitchSerial/n-8-4"},
	}
	for _, c := range cases {
		if got := serialSibling(c.name); got != c.want {
			t.Errorf("serialSibling(%q) = %q, want %q", c.name, got, c.want)
		}
	}
}

func speedupOf(t *testing.T, b benchJSON) float64 {
	t.Helper()
	for _, m := range b.Metrics {
		if m.Unit == "speedup-vs-serial" {
			return m.Value
		}
	}
	return 0
}

func TestDeriveSpeedupsAndMeta(t *testing.T) {
	doc, err := parse(strings.NewReader(twinSample))
	if err != nil {
		t.Fatal(err)
	}
	deriveSpeedups(&doc)
	if got := speedupOf(t, doc.Benchmarks[1]); got != 3.0 {
		t.Fatalf("Fig3 pool speedup: %v", got)
	}
	if got := speedupOf(t, doc.Benchmarks[3]); got != 4.0 {
		t.Fatalf("Fig5 pool speedup: %v", got)
	}
	// Serial siblings and benchmarks without a twin carry no derived metric.
	for _, i := range []int{0, 2, 4} {
		if speedupOf(t, doc.Benchmarks[i]) != 0 {
			t.Fatalf("benchmark %d should have no speedup: %+v", i, doc.Benchmarks[i])
		}
	}
	meta := buildMeta()
	if meta.GoMaxProcs < 1 || meta.NumCPU < 1 {
		t.Fatalf("meta machine context: %+v", meta)
	}
}

func TestAnnotatePrevCoversDerived(t *testing.T) {
	doc, err := parse(strings.NewReader(twinSample))
	if err != nil {
		t.Fatal(err)
	}
	deriveSpeedups(&doc)
	prev := document{Benchmarks: []benchJSON{
		{Package: "gbcr", Name: "BenchmarkFig5HPLDelay-4", Metrics: []metricJSON{
			{Unit: "speedup-vs-serial", Value: 2.5},
		}},
	}}
	annotatePrev(&doc, prev)
	for _, m := range doc.Benchmarks[3].Metrics {
		if m.Unit == "speedup-vs-serial" {
			if m.Prev == nil || *m.Prev != 2.5 {
				t.Fatalf("derived metric prev: %+v", m)
			}
			return
		}
	}
	t.Fatal("derived metric missing")
}
