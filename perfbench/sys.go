package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far, across
// all threads. Time the hypervisor steals from the VM is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// liveHeapMB forces two collections and returns the heap still live,
// in MiB. The caller keeps the state it wants counted reachable.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cpuStat is the machine-wide CPU time split from the first line of
// /proc/stat, in clock ticks.
type cpuStat struct {
	total, steal uint64
	ok           bool
}

func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	st.ok = true
	return st
}

// stealPct is the share of all CPU time between two readings that the
// hypervisor stole from this VM, in percent; 0 when /proc/stat is
// unavailable.
func stealPct(from, to cpuStat) float64 {
	if !from.ok || !to.ok || to.total <= from.total {
		return 0
	}
	return 100 * float64(to.steal-from.steal) / float64(to.total-from.total)
}

// runtimeSample holds the cumulative runtime/metrics counters the
// benchmark reports per op.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64 // seconds
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[1].Value.Float64()
	}
	return out
}

// machineReport is the environment line printed with every run, so a
// run taken during heavy steal can be picked out later.
func machineReport(steal float64) string {
	return fmt.Sprintf("machine: %d CPUs, GOMAXPROCS %d, %s, steal %.2f%% during the timed phase",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), steal)
}
