// Command perfbench is the repository's benchmark. It runs one of
// three workloads — the batch study, the live radar, and screening
// over JSON-RPC — from a seed, checks the program's outputs, and
// prints its metrics as one JSON object on the last line of standard
// output:
//
//	perfbench --workload study --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untimed
// warm-up followed by a timed phase. With --trace 1 it splits the
// time between an untraced phase and a traced phase that times each
// layer from outside the program, and prints the per-layer metrics.
// It exits with status 1 when a correctness check fails. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one benchmark scenario. setup builds its inputs from the
// seed and runs one untimed warm-up op; measure runs timed ops for
// about d, tracing them into tr when tr is set.
type workload interface {
	setup(seed uint64) error
	measure(d time.Duration, tr *tracer) (*result, error)
	close()
}

var workloads = map[string]func() workload{
	"study":  func() workload { return &studyWorkload{} },
	"radar":  func() workload { return &radarWorkload{} },
	"screen": func() workload { return &screenWorkload{} },
}

// result is what one timed phase measured.
type result struct {
	attempted, failed int
	// problems lists the failed correctness checks.
	problems []string
	// lat and minor are per-op latencies in milliseconds: all
	// successful ops, and those of the workload's minor class.
	lat, minor []float64
	// classes holds per-class latencies for the tail diagnostics.
	classes map[string][]float64
	// cpu is the process CPU time the ops used.
	cpu time.Duration
	// layers holds the per-layer metrics of a traced phase.
	layers map[string]float64
	// covered is the op time the traced layers account for, out of
	// opTime.
	covered, opTime time.Duration
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"minor_p50_ms", "ms"},
	{"cpu_ms", "ms"},
	{"heap_mb", "MB"},
}

// tailClasses name the op classes whose tails are reported.
var tailClasses = []string{"study_op", "radar_plain", "radar_swap", "radar_point", "screen_batch", "screen_single"}

// perLayer are the metrics of a traced run. A workload leaves the
// layers it never enters at 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.build_ms", "ms"},
		{"core.validate_ms", "ms"},
		{"cluster.cluster_ms", "ms"},
		{"measure.corpus_ms", "ms"},
		{"source.calls", "count"},
		{"source.busy_ms", "ms"},
		{"core.yield", "tx/receipt"},
		{"sitehunt.run_ms", "ms"},
		{"sitehunt.match_ms", "ms"},
		{"sitehunt.detections", "count"},
		{"ct.requests", "count"},
		{"ct.fetch_ms", "ms"},
		{"crawler.requests", "count"},
		{"crawler.fetch_ms", "ms"},
		{"screen.compile_ms", "ms"},
		{"screen.records", "count"},
		{"screen.swaps", "count"},
		{"cluster.families_ms", "ms"},
		{"radar.plain_steps", "count"},
		{"radar.swap_steps", "count"},
		{"radar.point_steps", "count"},
		{"radar.plain_step_p50_ms", "ms"},
		{"radar.swap_step_p50_ms", "ms"},
		{"radar.point_share", "%"},
		{"blocks.calls", "count"},
		{"blocks.busy_ms", "ms"},
		{"rpc.client_ms", "ms"},
		{"rpc.roundtrip_ms", "ms"},
		{"rpc.server_ms", "ms"},
		{"rpc.wire_ms", "ms"},
		{"rpc.single_client_ms", "ms"},
		{"rpc.single_roundtrip_ms", "ms"},
		{"rpc.single_server_ms", "ms"},
		{"rpc.single_wire_ms", "ms"},
		{"screen.lookup_us", "us"},
		{"rpc.req_bytes", "B/addr"},
		{"rpc.resp_bytes", "B/addr"},
		{"rpc.shed", "count"},
		{"loadgen.late_ms", "ms"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.gc_cpu_ms", "ms"},
		{"runtime.rss_peak_mb", "MB"},
		{"runtime.steal_pct", "%"},
		{"trace.overhead_pct", "%"},
		{"trace.uncovered_pct", "%"},
		{"trace.spans", "count"},
	}
	for _, c := range tailClasses {
		defs = append(defs,
			metricDef{c + ".tail_ms", "ms"},
			metricDef{c + ".tail_q", "quantile"},
			metricDef{c + ".tail_samples", "count"})
	}
	return defs
}()

// setupRuns is how many times a run sets its workload up; setup_s is
// the median.
const setupRuns = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: study, radar, or screen")
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 30, "length of the timed phase in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced phase")
		traceDir = flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
		capacity = flag.Bool("capacity", false, "screen only: measure the single-connection capacity of the request mix and exit")
	)
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceDir, *capacity); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errIncorrect) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

var errIncorrect = errors.New("correctness check failed")

func run(name string, seed uint64, d time.Duration, traced bool, traceDir string, capacity bool) error {
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want study, radar, or screen)", name)
	}
	if d <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	var (
		w      workload
		setups []float64
	)
	for i := 0; i < setupRuns; i++ {
		if w != nil {
			w.close()
		}
		w = mk()
		runtime.GC()
		start := time.Now()
		if err := w.setup(seed); err != nil {
			w.close()
			return fmt.Errorf("setting up %s: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()
	if capacity {
		sw, ok := w.(*screenWorkload)
		if !ok {
			return fmt.Errorf("--capacity applies to the screen workload only")
		}
		return sw.capacity(d)
	}

	fmt.Printf("perfbench: workload %s, seed %d, %s timed, trace %v\n", name, seed, d, traced)
	fmt.Printf("setup runs: %.3f s\n", setups)
	out := report{Metrics: make(map[string]metricValue)}
	var all []*result
	if !traced {
		res, steal, err := phase(w, d, nil)
		if err != nil {
			return err
		}
		all = append(all, res)
		heap := liveHeapMB()
		runtime.KeepAlive(w)
		fmt.Println(machineReport(steal))
		err = set(out.Metrics, endToEnd, map[string]float64{
			"setup_s":      median(setups),
			"p50_ms":       median(res.lat),
			"minor_p50_ms": median(res.minor),
			"cpu_ms":       perOp(ms(res.cpu), res.attempted),
			"heap_mb":      heap,
		})
		if err != nil {
			return err
		}
	} else {
		base, steal, err := phase(w, d/2, nil)
		if err != nil {
			return err
		}
		runtime.GC()
		tr := newTracer()
		res, _, err := phase(w, d/2, tr)
		if err != nil {
			return err
		}
		all = append(all, base, res)
		fmt.Println(machineReport(steal))
		// Runtime counters and tails are read from the untraced phase,
		// which the tracing's own allocations do not disturb.
		vals := res.layers
		for _, k := range []string{"runtime.alloc_mb", "runtime.gc_cpu_ms"} {
			vals[k] = base.layers[k]
		}
		vals["runtime.steal_pct"] = steal
		vals["runtime.rss_peak_mb"] = peakRSSMB()
		if m := median(base.lat); m > 0 {
			vals["trace.overhead_pct"] = 100 * (median(res.lat)/m - 1)
		}
		if res.opTime > 0 {
			vals["trace.uncovered_pct"] = 100 * (1 - res.covered.Seconds()/res.opTime.Seconds())
		}
		vals["trace.spans"] = float64(tr.count())
		for c, samples := range base.classes {
			if q, v, ok := tail(samples); ok {
				vals[c+".tail_ms"] = v
				vals[c+".tail_q"] = q
			}
			vals[c+".tail_samples"] = float64(len(samples))
		}
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", tr.count(), path)
		if err := set(out.Metrics, perLayer, vals); err != nil {
			return err
		}
	}
	out.Correct = true
	printed := 0
	for _, r := range all {
		out.Attempted += r.attempted
		out.Failed += r.failed
		for _, p := range r.problems {
			out.Correct = false
			if printed++; printed <= 20 {
				fmt.Println("FAILED:", p)
			}
		}
	}
	printMetrics(out.Metrics)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return errIncorrect
	}
	return nil
}

// phase runs one timed phase after a collection, and adds the runtime
// counters it moved to the result's layer metrics.
func phase(w workload, d time.Duration, tr *tracer) (*result, float64, error) {
	runtime.GC()
	rt0, st0 := readRuntime(), readCPUStat()
	res, err := w.measure(d, tr)
	if err != nil {
		return nil, 0, err
	}
	rt1, st1 := readRuntime(), readCPUStat()
	if res.layers == nil {
		res.layers = make(map[string]float64)
	}
	res.layers["runtime.alloc_mb"] = perOp(float64(rt1.allocBytes-rt0.allocBytes)/(1<<20), res.attempted)
	res.layers["runtime.gc_cpu_ms"] = perOp((rt1.gcCPU-rt0.gcCPU)*1e3, res.attempted)
	return res, stealPct(st0, st1), nil
}

func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}

// set fills dst with every metric in defs, taking values from vals
// (missing ones are 0). A value in vals that defs does not name is a
// bug in the workload.
func set(dst map[string]metricValue, defs []metricDef, vals map[string]float64) error {
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
		dst[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	for k := range vals {
		if !known[k] {
			return fmt.Errorf("metric %q is not declared", k)
		}
	}
	return nil
}

func printMetrics(m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-28s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
