package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/wht"
)

// copyMiB is the size of each array in the copy-bandwidth loop: larger
// than one core's L2 on any current x86 or Arm part, so the ceiling is
// for streaming stages, and the same size as the f64 n=22 vectors the
// transform and out-of-core workloads stream.
const copyMiB = 32

// hostInfo is the fingerprint and the ceilings printed with every result,
// so a reader can tell when the host changed under the numbers.
type hostInfo struct {
	NProc       int     `json:"nproc"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	ISA         string  `json:"isa"`
	GoVersion   string  `json:"go_version"`
	L2KiB       int     `json:"l2_kib"`
	L3KiB       int     `json:"l3_kib"`
	CopyGBps    float64 `json:"copy_gbps"`
	AddGFlops   float64 `json:"add_gflops"`
	TimerFloorM float64 `json:"timer_floor_ms"`
}

func measureHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		ISA:        wht.ISAFeatures(),
		GoVersion:  runtime.Version(),
		L2KiB:      cacheKiB(2),
		L3KiB:      cacheKiB(3),
	}
	if h.ISA == "" {
		h.ISA = "scalar"
	}
	h.CopyGBps = copyGBps()
	h.AddGFlops = addGFlops()
	h.TimerFloorM = timerFloorMs()
	return h
}

// cacheKiB reads the size of CPU 0's unified or data cache at level
// from sysfs; 0 when the platform does not expose it.
func cacheKiB(level int) int {
	const dir = "/sys/devices/system/cpu/cpu0/cache/"
	for i := 0; i < 8; i++ {
		idx := dir + "index" + strconv.Itoa(i) + "/"
		lv, err := os.ReadFile(idx + "level")
		if err != nil {
			break
		}
		typ, _ := os.ReadFile(idx + "type")
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) || strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		sz, _ := os.ReadFile(idx + "size")
		s := strings.TrimSpace(string(sz))
		if k, err := strconv.Atoi(strings.TrimSuffix(s, "K")); err == nil && strings.HasSuffix(s, "K") {
			return k
		}
	}
	return 0
}

// copyGBps is the median bandwidth of copying one copyMiB array into
// another, counting bytes read plus bytes written.
func copyGBps() float64 {
	n := copyMiB << 20 / 8
	src, dst := make([]float64, n), make([]float64, n)
	for i := range src {
		src[i] = float64(i)
	}
	t, _ := timeMedianMs(9, func() error { copy(dst, src); return nil })
	return 2 * float64(n*8) / (t * 1e6)
}

var addSink float64

// addGFlops is the single-thread rate of a register-resident loop of
// independent float64 adds: the in-cache ceiling for butterfly stages.
func addGFlops() float64 {
	const iters = 1 << 22
	t, _ := timeMedianMs(7, func() error {
		a0, a1, a2, a3, a4, a5, a6, a7 := 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0
		for i := 0; i < iters; i++ {
			a0 += 1.5
			a1 += 1.5
			a2 += 1.5
			a3 += 1.5
			a4 += 1.5
			a5 += 1.5
			a6 += 1.5
			a7 += 1.5
		}
		addSink = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
		return nil
	})
	return 8 * iters / (t * 1e6)
}

// timerFloorMs is the median time a 200µs sleep actually takes: the
// granularity of every timer-driven wait, the serving daemon's batch
// window and the open-loop generator included.
func timerFloorMs() float64 {
	t, _ := timeMedianMs(101, func() error { time.Sleep(200 * time.Microsecond); return nil })
	return t
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
