package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"

	"graphalytics/internal/archive"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of positive samples (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resetPeakRSS returns freed heap pages to the OS and restarts the
// kernel's peak-RSS accounting (VmHWM) for this process, so the measured
// phase starts from the same resident set whatever set-up left behind,
// and peakRSSMB then reports the peak since the reset. Where
// /proc/self/clear_refs is unavailable the peak stays process-wide.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set size in MB (10^6
// bytes) since the last resetPeakRSS, or since start where VmHWM is not
// available.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// retainedHeapMB collects garbage and returns the live heap in MB.
// Callers keep the session or service they measure reachable across the
// call.
func retainedHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// goStats is a snapshot of the Go runtime counters the traced run
// reports as deltas.
type goStats struct {
	alloc, gcs, pause uint64
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goStats{alloc: m.TotalAlloc, gcs: uint64(m.NumGC), pause: m.PauseTotalNs}
}

// environment is printed with every run's output.
type environment struct {
	archive.Environment
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func captureEnv(workload string, seed uint64, seconds int, trace bool) environment {
	return environment{
		Environment: archive.CaptureEnv(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		CPU:         cpuModel(),
		Workload:    workload,
		Seed:        seed,
		Seconds:     seconds,
		Trace:       trace,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
