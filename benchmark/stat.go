package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ssr/internal/stats"
)

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile is the p-quantile (p in [0,1]) of an unsorted sample by linear
// interpolation between closest ranks; NaN for an empty sample.
func quantile(xs []float64, p float64) float64 {
	return stats.Percentile(sortedCopy(xs), p)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartileSpread is the run-to-run spread the A/A gate uses: the distance
// between the first and third quartile as a share of the median, with the
// quartiles taken the way Python's statistics.quantiles(xs, n=4) takes them
// (exclusive method), so the figure matches what an outside checker computes.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sortedCopy(xs)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / m)
}

// nsQuantiles sorts a latency sample in place and returns the requested
// quantiles in milliseconds.
func nsQuantiles(ns []int64, ps ...float64) []float64 {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	out := make([]float64, len(ps))
	for i, p := range ps {
		if len(ns) == 0 {
			out[i] = math.NaN()
			continue
		}
		out[i] = float64(ns[int(p*float64(len(ns)-1))]) / 1e6
	}
	return out
}

// cpuTime is this process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocCounters are the cumulative heap allocation counters of a process:
// objects and bytes. Both repeat from run to run, which wall and CPU time on
// a shared machine do not.
type allocCounters struct {
	mallocs, bytes uint64
}

func (a allocCounters) since(b allocCounters) allocCounters {
	return allocCounters{a.mallocs - b.mallocs, a.bytes - b.bytes}
}

// allocs reads this process's counters.
func allocs() allocCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounters{ms.Mallocs, ms.TotalAlloc}
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// peakRSSMB is the high-water resident set (VmHWM) of a process in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status VmHWM: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

// procCPU reads utime+stime of a process from /proc/<pid>/stat. The kernel
// reports clock ticks; USER_HZ is 100 on every Linux port Go supports.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(ut+st) * (time.Second / 100), nil
}

// loadAvg1 is the 1-minute load average, or -1 when unreadable.
func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
