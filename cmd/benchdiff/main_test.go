package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
BenchmarkTable1_DatasetCollection-8   	       1	512345678 ns/op	       1910 contracts	      87077 profit-txs
BenchmarkPipelineConcurrency/workers=1-8         	       1	900000000 ns/op	      87077 profit-txs
BenchmarkPipelineConcurrency/workers=16-8        	       1	120000000 ns/op	      87077 profit-txs
BenchmarkLoadgenSource-8   	       5	  31234567 ns/op	       123.4 p50-us	       456.7 p99-us	     64321 achieved-ops-s
PASS
ok  	repro	3.456s
`

func TestParseGoBench(t *testing.T) {
	entries, err := ParseGoBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("parsed %d entries, want 4: %+v", len(entries), entries)
	}
	// -8 cpu suffix stripped, subtests kept distinct.
	if entries[0].Name != "BenchmarkTable1_DatasetCollection" {
		t.Errorf("name = %q (cpu suffix not stripped?)", entries[0].Name)
	}
	if entries[1].Name != "BenchmarkPipelineConcurrency/workers=1" {
		t.Errorf("subtest name = %q", entries[1].Name)
	}
	// Units sanitized: ns/op -> ns_op, profit-txs -> profit_txs.
	e := entries[0]
	if e.Metrics["ns_op"] != 512345678 {
		t.Errorf("ns_op = %g", e.Metrics["ns_op"])
	}
	if e.Metrics["profit_txs"] != 87077 || e.Metrics["contracts"] != 1910 {
		t.Errorf("custom metrics = %v", e.Metrics)
	}
	lg := entries[3]
	if lg.Metrics["p99_us"] != 456.7 || lg.Metrics["achieved_ops_s"] != 64321 {
		t.Errorf("loadgen metrics = %v", lg.Metrics)
	}
	if lg.Iterations != 5 {
		t.Errorf("iterations = %d", lg.Iterations)
	}
}

// Repeated runs of one benchmark (go test -count 5) fold into one
// entry holding each metric's median, so one slow run cannot fail the
// gate and one fast run cannot hide a slowdown.
const repeatedBench = `BenchmarkLoadgenSource-2   	       1	  31000000 ns/op	       0.50 p50-us	       3.0 p99-us
BenchmarkLoadgenSource-2   	       1	  30000000 ns/op	       0.40 p50-us	     100.1 p99-us
BenchmarkLoadgenOpenLoop-2 	       1	  50000000 ns/op	       2.5 p99-us
BenchmarkLoadgenSource-2   	       1	  33000000 ns/op	       0.60 p50-us	       4.1 p99-us
BenchmarkLoadgenSource-2   	       3	  29000000 ns/op	       0.45 p50-us	       3.5 p99-us
BenchmarkLoadgenSource-2   	       1	  32000000 ns/op	       0.55 p50-us	      21.85 p99-us
BenchmarkLoadgenOpenLoop-2 	       1	  52000000 ns/op	       3.5 p99-us
`

func TestParseGoBenchRepeatsTakeMedian(t *testing.T) {
	entries, err := ParseGoBench(strings.NewReader(repeatedBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("parsed %d entries, want 2 (one per benchmark): %+v", len(entries), entries)
	}
	src, open := entries[0], entries[1]
	if src.Name != "BenchmarkLoadgenSource" || open.Name != "BenchmarkLoadgenOpenLoop" {
		t.Fatalf("names = %q, %q: want first-seen order", src.Name, open.Name)
	}
	for unit, want := range map[string]float64{"ns_op": 31000000, "p50_us": 0.5, "p99_us": 4.1} {
		if got := src.Metrics[unit]; got != want {
			t.Errorf("source %s = %g, want the median of 5 runs, %g", unit, got, want)
		}
	}
	if src.Iterations != 1 {
		t.Errorf("source iterations = %d, want the median, 1", src.Iterations)
	}
	// An even count takes the mean of the two middle runs.
	if got := open.Metrics["p99_us"]; got != 3 {
		t.Errorf("open-loop p99_us = %g, want 3", got)
	}
	if got := open.Metrics["ns_op"]; got != 51000000 {
		t.Errorf("open-loop ns_op = %g, want 51000000", got)
	}
}

func TestClassify(t *testing.T) {
	cases := map[string]metricClass{
		"ns_op":          lowerBetter,
		"B_op":           lowerBetter,
		"allocs_op":      lowerBetter,
		"p99_us":         lowerBetter,
		"build_p50_ms":   lowerBetter,
		"lag_p99_us":     lowerBetter,
		"achieved_ops_s": higherBetter,
		"blocks_s":       higherBetter,
		"MB_s":           higherBetter,
	}
	for unit, want := range cases {
		if got := classify(unit); got != want {
			t.Errorf("classify(%q) = %v, want %v", unit, got, want)
		}
	}
}

func bench(name string, metrics map[string]float64) Entry {
	return Entry{Name: name, Iterations: 1, Metrics: metrics}
}

func file(entries ...Entry) *File {
	return &File{Schema: SchemaVersion, Suite: "test", Entries: entries}
}

// TestGateInjectedSlowdown: the gate demonstrably fails when a timing
// metric regresses beyond tolerance — a 10x slowdown against a 2x
// tolerance must be caught.
func TestGateInjectedSlowdown(t *testing.T) {
	base := file(bench("BenchmarkPipeline", map[string]float64{"ns_op": 1e8, "p99_us": 500}))
	slow := file(bench("BenchmarkPipeline", map[string]float64{"ns_op": 1e9, "p99_us": 500}))
	regs := Compare(slow, base, 2)
	if len(regs) != 1 {
		t.Fatalf("regressions = %+v, want exactly the ns_op slowdown", regs)
	}
	if regs[0].Metric != "ns_op" || !strings.Contains(regs[0].Reason, "10.00x slower") {
		t.Errorf("regression = %+v", regs[0])
	}
}

func TestGateWithinTolerance(t *testing.T) {
	base := file(bench("BenchmarkPipeline", map[string]float64{"ns_op": 1e8}))
	ok := file(bench("BenchmarkPipeline", map[string]float64{"ns_op": 3e8}))
	if regs := Compare(ok, base, 5); len(regs) != 0 {
		t.Errorf("3x slowdown under 5x tolerance flagged: %+v", regs)
	}
	// Faster is never a regression.
	fast := file(bench("BenchmarkPipeline", map[string]float64{"ns_op": 1e6}))
	if regs := Compare(fast, base, 5); len(regs) != 0 {
		t.Errorf("speedup flagged: %+v", regs)
	}
}

// TestGateUnclassifiedMetric: a metric that is neither time-like nor
// throughput fails the gate whichever file carries it, even at its
// baseline value — a deterministic count belongs in an ordinary test.
func TestGateUnclassifiedMetric(t *testing.T) {
	timed := map[string]float64{"ns_op": 1e8}
	counted := map[string]float64{"ns_op": 1e8, "profit_txs": 852}
	for _, tc := range []struct {
		name      string
		cur, base map[string]float64
		file      string
	}{
		{"current", counted, timed, "current metric profit_txs"},
		{"baseline", timed, counted, "baseline metric profit_txs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			regs := Compare(file(bench("BenchmarkPipeline", tc.cur)), file(bench("BenchmarkPipeline", tc.base)), 5)
			if len(regs) != 1 || !strings.Contains(regs[0].String(), tc.file+" is neither time-like nor throughput") {
				t.Errorf("regressions = %v, want one naming the %s", regs, tc.file)
			}
		})
	}
	regs := Compare(file(bench("BenchmarkPipeline", counted)), file(bench("BenchmarkPipeline", counted)), 5)
	if len(regs) != 2 {
		t.Errorf("count in both files: regressions = %v, want one per file", regs)
	}
}

func TestGateThroughput(t *testing.T) {
	base := file(bench("BenchmarkRPC", map[string]float64{"achieved_ops_s": 50000}))
	slow := file(bench("BenchmarkRPC", map[string]float64{"achieved_ops_s": 5000}))
	regs := Compare(slow, base, 2)
	if len(regs) != 1 || !strings.Contains(regs[0].Reason, "less throughput") {
		t.Errorf("throughput collapse not flagged: %+v", regs)
	}
	ok := file(bench("BenchmarkRPC", map[string]float64{"achieved_ops_s": 30000}))
	if regs := Compare(ok, base, 2); len(regs) != 0 {
		t.Errorf("within-tolerance throughput flagged: %+v", regs)
	}
}

// TestGateMissingBenchmark: silently deleting a benchmark must fail the
// gate, not pass it.
func TestGateMissingBenchmark(t *testing.T) {
	base := file(
		bench("BenchmarkA", map[string]float64{"ns_op": 1}),
		bench("BenchmarkB", map[string]float64{"ns_op": 1}),
	)
	cur := file(bench("BenchmarkA", map[string]float64{"ns_op": 1}))
	regs := Compare(cur, base, 5)
	if len(regs) != 1 || regs[0].Benchmark != "BenchmarkB" {
		t.Errorf("missing benchmark not flagged: %+v", regs)
	}
	// A new benchmark in current (absent from baseline) passes.
	grown := file(
		bench("BenchmarkA", map[string]float64{"ns_op": 1}),
		bench("BenchmarkB", map[string]float64{"ns_op": 1}),
		bench("BenchmarkC", map[string]float64{"ns_op": 999}),
	)
	if regs := Compare(grown, base, 5); len(regs) != 0 {
		t.Errorf("new benchmark flagged: %+v", regs)
	}
}

// TestRunGateEndToEnd exercises the CLI surface: a missing baseline
// fails, -update records one, then pass, injected regression, and
// -update again.
func TestRunGateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	curPath := filepath.Join(dir, "current.json")
	basePath := filepath.Join(dir, "baseline.json")

	write := func(path string, f *File) {
		t.Helper()
		b, err := jsonMarshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(curPath, file(bench("BenchmarkX", map[string]float64{"ns_op": 1e8})))

	// 1. No baseline: fail, name the -update command, write nothing.
	var out bytes.Buffer
	if err := runGate([]string{"-current", curPath, "-baseline", basePath}, &out); err == nil {
		t.Fatal("gate against a missing baseline passed")
	}
	want := "go run ./cmd/benchdiff gate -current " + curPath + " -baseline " + basePath + " -update"
	if !strings.Contains(out.String(), want) {
		t.Errorf("gate output does not name %q:\n%s", want, out.String())
	}
	if _, err := os.Stat(basePath); !os.IsNotExist(err) {
		t.Fatalf("gate wrote a baseline without -update: %v", err)
	}

	// 2. -update records the baseline; the same results then pass.
	if err := runGate([]string{"-current", curPath, "-baseline", basePath, "-update"}, &out); err != nil {
		t.Fatalf("update failed: %v", err)
	}
	if err := runGate([]string{"-current", curPath, "-baseline", basePath}, &out); err != nil {
		t.Fatalf("identical gate failed: %v", err)
	}

	// 3. Injected 10x slowdown: fail.
	write(curPath, file(bench("BenchmarkX", map[string]float64{"ns_op": 1e9})))
	out.Reset()
	err := runGate([]string{"-current", curPath, "-baseline", basePath, "-tolerance", "2"}, &out)
	if err == nil {
		t.Fatal("injected slowdown passed the gate")
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("gate output missing REGRESSION line: %q", out.String())
	}

	// 4. -update accepts the new numbers; the gate then passes.
	if err := runGate([]string{"-current", curPath, "-baseline", basePath, "-update"}, &out); err != nil {
		t.Fatalf("update failed: %v", err)
	}
	if err := runGate([]string{"-current", curPath, "-baseline", basePath, "-tolerance", "2"}, &out); err != nil {
		t.Fatalf("gate after update failed: %v", err)
	}
}

// TestRunGateZeroOverlap: gating a brand-new suite against a stale or
// foreign baseline must fail with the explicit -update bootstrap
// command naming both paths, not a pile of "missing from current
// results" regressions.
func TestRunGateZeroOverlap(t *testing.T) {
	dir := t.TempDir()
	curPath := filepath.Join(dir, "BENCH_screen.json")
	basePath := filepath.Join(dir, "BENCH_screen.baseline.json")
	write := func(path string, f *File) {
		t.Helper()
		b, err := jsonMarshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(curPath, file(bench("BenchmarkScreenBatch", map[string]float64{"ns_op": 1e6})))
	write(basePath, file(bench("BenchmarkSomethingElse", map[string]float64{"ns_op": 1e6})))

	var out bytes.Buffer
	err := runGate([]string{"-current", curPath, "-baseline", basePath}, &out)
	if err == nil {
		t.Fatal("zero-overlap gate passed")
	}
	if !strings.Contains(err.Error(), "no benchmark overlap") {
		t.Errorf("error = %v, want overlap diagnosis", err)
	}
	for _, want := range []string{"-update", curPath, basePath, "bootstrap"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("gate output missing %q:\n%s", want, out.String())
		}
	}

	// Partial overlap still gates normally: the missing benchmark is a
	// real regression, not a bootstrap case.
	write(basePath, file(
		bench("BenchmarkScreenBatch", map[string]float64{"ns_op": 1e6}),
		bench("BenchmarkSomethingElse", map[string]float64{"ns_op": 1e6}),
	))
	out.Reset()
	err = runGate([]string{"-current", curPath, "-baseline", basePath}, &out)
	if err == nil || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("partial overlap did not gate: err=%v out=%q", err, out.String())
	}

	// The suggested command works: -update rewrites the baseline and
	// the gate passes.
	if err := runGate([]string{"-current", curPath, "-baseline", basePath, "-update"}, &out); err != nil {
		t.Fatalf("bootstrap -update failed: %v", err)
	}
	if err := runGate([]string{"-current", curPath, "-baseline", basePath}, &out); err != nil {
		t.Fatalf("gate after bootstrap failed: %v", err)
	}
}

func jsonMarshal(f *File) ([]byte, error) {
	return json.Marshal(f)
}
