// Command benchdiff turns `go test -bench` output into a stable JSON
// artifact and gates new results against a committed baseline.
//
//	go test -bench . -benchtime 1x | benchdiff emit -suite pipeline -o BENCH_pipeline.json
//	benchdiff gate -current BENCH_pipeline.json -baseline scripts/bench/BENCH_pipeline.baseline.json -tolerance 5
//
// emit parses benchmark lines (including b.ReportMetric custom units
// like p99-us) into a daas-bench/v1 file. gate compares a current file
// against a baseline and exits non-zero on regression:
//
//   - time-like metrics (ns_op, B_op, allocs_op, *_s/_ms/_us/_ns) are
//     lower-is-better, gated at baseline*tolerance;
//   - throughput metrics (*ops_s, *blocks_s, MB_s) are higher-is-better,
//     gated at baseline/tolerance;
//   - any other metric, in either file, fails the gate: a deterministic
//     count belongs in an ordinary test, not behind a timing tolerance;
//   - a benchmark present in the baseline but missing from the current
//     file is a regression (a silently deleted benchmark must not pass).
//
// A missing baseline fails the gate. -update is the only way a
// baseline is written: it rewrites the file from the current results
// and passes.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// SchemaVersion identifies the artifact format.
const SchemaVersion = "daas-bench/v1"

// Entry is one benchmark's parsed results.
type Entry struct {
	// Name is the benchmark name with the trailing -N GOMAXPROCS
	// suffix stripped, so baselines survive machines with different
	// core counts.
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Metrics maps sanitized unit names (ns/op -> ns_op, p99-us ->
	// p99_us) to values.
	Metrics map[string]float64 `json:"metrics"`
}

// File is the emitted artifact.
type File struct {
	Schema  string  `json:"schema"`
	Suite   string  `json:"suite"`
	Entries []Entry `json:"entries"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "emit":
		err = runEmit(os.Args[2:])
	case "gate":
		err = runGate(os.Args[2:], os.Stdout)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchdiff emit -suite NAME [-o FILE] [input files | stdin]
  benchdiff gate -current FILE -baseline FILE [-tolerance X] [-update]`)
}

func runEmit(args []string) error {
	fs := flag.NewFlagSet("emit", flag.ExitOnError)
	suite := fs.String("suite", "", "suite name recorded in the artifact")
	out := fs.String("o", "", "output path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *suite == "" {
		return fmt.Errorf("emit: -suite is required")
	}
	var readers []io.Reader
	if fs.NArg() == 0 {
		readers = append(readers, os.Stdin)
	}
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		readers = append(readers, f)
	}
	entries, err := ParseGoBench(io.MultiReader(readers...))
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("emit: no benchmark lines found in input")
	}
	file := &File{Schema: SchemaVersion, Suite: *suite, Entries: entries}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

// benchLine matches "BenchmarkName-8   123   456 ns/op   7 B/op ..."
var benchLine = regexp.MustCompile(`^(Benchmark\S*)\s+(\d+)\s+(.*)$`)

// cpuSuffix strips the trailing -N GOMAXPROCS marker.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// unitSan maps unit characters outside [A-Za-z0-9_] to underscores, so
// ns/op, p99-us, and MB/s become stable JSON keys.
var unitSan = regexp.MustCompile(`[^A-Za-z0-9_]`)

// ParseGoBench parses `go test -bench` output into entries, merging
// repeated runs of the same benchmark by keeping the last occurrence
// (matching go test's own behaviour of reporting each run separately —
// for gating, one representative run is enough).
func ParseGoBench(r io.Reader) ([]Entry, error) {
	byName := make(map[string]*Entry)
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := cpuSuffix.ReplaceAllString(m[1], "")
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		fields := strings.Fields(m[3])
		if len(fields)%2 != 0 {
			continue
		}
		metrics := make(map[string]float64, len(fields)/2)
		ok := true
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			metrics[unitSan.ReplaceAllString(fields[i+1], "_")] = v
		}
		if !ok || len(metrics) == 0 {
			continue
		}
		e, seen := byName[name]
		if !seen {
			e = &Entry{Name: name, Metrics: make(map[string]float64)}
			byName[name] = e
			order = append(order, name)
		}
		e.Iterations = iters
		for k, v := range metrics {
			e.Metrics[k] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]Entry, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out, nil
}

// metricClass classifies a sanitized unit for gating.
type metricClass int

const (
	unclassified metricClass = iota // neither: fails the gate
	lowerBetter                     // latency, allocations
	higherBetter                    // throughput
)

func classify(unit string) metricClass {
	switch unit {
	case "ns_op", "B_op", "allocs_op":
		return lowerBetter
	case "MB_s":
		return higherBetter
	}
	// A rate per second is named by what it counts.
	if strings.HasSuffix(unit, "ops_s") || strings.HasSuffix(unit, "blocks_s") {
		return higherBetter
	}
	for _, suf := range []string{"_s", "_ms", "_us", "_ns"} {
		if strings.HasSuffix(unit, suf) {
			return lowerBetter
		}
	}
	return unclassified
}

// Regression describes one gate failure.
type Regression struct {
	Benchmark string
	Metric    string
	Baseline  float64
	Current   float64
	Reason    string
}

func (r Regression) String() string {
	if r.Metric == "" {
		return fmt.Sprintf("%s: %s", r.Benchmark, r.Reason)
	}
	return fmt.Sprintf("%s %s: baseline %g, current %g (%s)", r.Benchmark, r.Metric, r.Baseline, r.Current, r.Reason)
}

// unclassifiedMetric reports a metric the gate cannot compare.
func unclassifiedMetric(benchmark, file, unit string) Regression {
	return Regression{Benchmark: benchmark, Reason: fmt.Sprintf(
		"%s metric %s is neither time-like nor throughput; assert it in a test instead", file, unit)}
}

// Compare gates current against baseline. tolerance is the allowed
// ratio for timing metrics (e.g. 5 = current may be up to 5x slower).
// New benchmarks and new metrics in current pass silently — they gate
// once they reach the baseline — unless the metric is unclassified.
func Compare(current, baseline *File, tolerance float64) []Regression {
	var regs []Regression
	curByName := make(map[string]Entry, len(current.Entries))
	for _, e := range current.Entries {
		curByName[e.Name] = e
		for _, unit := range sortedUnits(e.Metrics) {
			if classify(unit) == unclassified {
				regs = append(regs, unclassifiedMetric(e.Name, "current", unit))
			}
		}
	}
	for _, base := range baseline.Entries {
		cur, ok := curByName[base.Name]
		if !ok {
			regs = append(regs, Regression{Benchmark: base.Name, Reason: "benchmark missing from current results"})
			continue
		}
		for _, unit := range sortedUnits(base.Metrics) {
			bv := base.Metrics[unit]
			class := classify(unit)
			if class == unclassified {
				regs = append(regs, unclassifiedMetric(base.Name, "baseline", unit))
				continue
			}
			cv, ok := cur.Metrics[unit]
			if !ok {
				regs = append(regs, Regression{Benchmark: base.Name, Metric: unit, Baseline: bv, Reason: "metric missing from current results"})
				continue
			}
			switch class {
			case lowerBetter:
				if bv > 0 && cv > bv*tolerance {
					regs = append(regs, Regression{base.Name, unit, bv, cv,
						fmt.Sprintf("%.2fx slower than baseline (tolerance %gx)", cv/bv, tolerance)})
				}
			case higherBetter:
				if bv > 0 && cv < bv/tolerance {
					regs = append(regs, Regression{base.Name, unit, bv, cv,
						fmt.Sprintf("%.2fx less throughput than baseline (tolerance %gx)", bv/cv, tolerance)})
				}
			}
		}
	}
	return regs
}

// sortedUnits returns the metric names in sorted order, so the gate
// reports regressions deterministically.
func sortedUnits(metrics map[string]float64) []string {
	units := make([]string, 0, len(metrics))
	for unit := range metrics {
		units = append(units, unit)
	}
	sort.Strings(units)
	return units
}

func runGate(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("gate", flag.ExitOnError)
	curPath := fs.String("current", "", "current results file (from benchdiff emit)")
	basePath := fs.String("baseline", "", "committed baseline file")
	tolerance := fs.Float64("tolerance", 5, "allowed slowdown ratio for timing metrics")
	update := fs.Bool("update", false, "rewrite the baseline from current results and pass (intentional change)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *curPath == "" || *basePath == "" {
		return fmt.Errorf("gate: -current and -baseline are required")
	}
	cur, err := readFile(*curPath)
	if err != nil {
		return err
	}
	if *update {
		if err := writeBaseline(*basePath, cur); err != nil {
			return err
		}
		fmt.Fprintf(w, "benchdiff: baseline %s updated from %s\n", *basePath, *curPath)
		return nil
	}
	suggestUpdate := func() {
		fmt.Fprintf(w, "benchdiff: if this suite is brand new, bootstrap its baseline with:\n")
		fmt.Fprintf(w, "  go run ./cmd/benchdiff gate -current %s -baseline %s -update\n", *curPath, *basePath)
	}
	base, err := readFile(*basePath)
	if os.IsNotExist(err) {
		fmt.Fprintf(w, "benchdiff: no baseline at %s\n", *basePath)
		suggestUpdate()
		return fmt.Errorf("gate: no baseline at %s", *basePath)
	}
	if err != nil {
		return err
	}
	// A baseline that shares no benchmark with the current file is not
	// a regression — it is a stale or foreign baseline gating a
	// brand-new suite (every entry would report "missing from current
	// results", a uselessly misleading failure). Name the bootstrap
	// path explicitly instead.
	if len(cur.Entries) > 0 && overlapCount(cur, base) == 0 {
		fmt.Fprintf(w, "benchdiff: baseline %s shares no benchmarks with %s (suite %s)\n", *basePath, *curPath, cur.Suite)
		suggestUpdate()
		return fmt.Errorf("gate: baseline %s has no benchmark overlap with current results", *basePath)
	}
	regs := Compare(cur, base, *tolerance)
	if len(regs) == 0 {
		fmt.Fprintf(w, "benchdiff: %s ok against %s (%d benchmarks, tolerance %gx)\n",
			cur.Suite, *basePath, len(base.Entries), *tolerance)
		return nil
	}
	for _, r := range regs {
		fmt.Fprintf(w, "REGRESSION %s\n", r)
	}
	return fmt.Errorf("gate: %d regression(s) in suite %s", len(regs), cur.Suite)
}

// overlapCount reports how many benchmark names appear in both files.
func overlapCount(cur, base *File) int {
	names := make(map[string]bool, len(cur.Entries))
	for _, e := range cur.Entries {
		names[e.Name] = true
	}
	n := 0
	for _, e := range base.Entries {
		if names[e.Name] {
			n++
		}
	}
	return n
}

func readFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != SchemaVersion {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, SchemaVersion)
	}
	return &f, nil
}

func writeBaseline(path string, f *File) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
