package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// A run repeats its set-up at least setupMinReps times and for at least
// setupMin; setup_s is the median. One repetition takes 15-60 ms of CPU,
// so a single one is at the mercy of the scheduler and the GC's timing.
const (
	setupMinReps = 21
	setupMin     = 2 * time.Second
)

// quantile returns the Harrell-Davis estimate of the q-quantile of xs (0
// for an empty slice): a Beta((n+1)q, (n+1)(1-q))-weighted mean of the
// order statistics. The serve-mix latencies are a mixture of per-program
// modes; a single order statistic there jumps between modes from run to
// run, the weighted mean moves smoothly. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	sum, prev := 0.0, 0.0
	for i, x := range xs {
		cur := betaInc(a, b, float64(i+1)/float64(n))
		sum += (cur - prev) * x
		prev = cur
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny, eps = 1e-300, 1e-14
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 100000; m++ {
		fm := float64(m)
		for k, num := range [2]float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
			if k == 1 && math.Abs(d*c-1) < eps {
				return h
			}
		}
	}
	return h
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a per-layer metric that does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// drawSeed draws a positive engine seed (0 would mean "the paper's seed").
func drawSeed(rng *rand.Rand) int64 { return rng.Int63n(1<<62) + 1 }

// runtimeSnap is a reading of the Go runtime's allocation and GC counters.
type runtimeSnap struct {
	allocBytes, gcCycles uint64
	// gcCPU and usedCPU are the runtime's estimates of GC CPU time and of
	// all CPU time not idle.
	gcCPU, usedCPU float64
	// procCPU is the process's CPU time as the kernel accounts it.
	procCPU time.Duration
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/live:bytes"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readRuntime() runtimeSnap {
	metrics.Read(runtimeSamples)
	return runtimeSnap{
		allocBytes: runtimeSamples[0].Value.Uint64(),
		gcCycles:   runtimeSamples[1].Value.Uint64(),
		gcCPU:      runtimeSamples[2].Value.Float64(),
		usedCPU:    runtimeSamples[3].Value.Float64() - runtimeSamples[5].Value.Float64(),
		procCPU:    procCPU(),
	}
}

// procCPU returns the user and system CPU time the process has used. The
// kernel does not count time the hypervisor took from the vCPU, or time
// the process waited for a CPU.
func procCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces two collections (the second empties the sync.Pool
// victim caches the first left) and returns the heap left live.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	metrics.Read(runtimeSamples)
	return float64(runtimeSamples[4].Value.Uint64()) / 1e6
}

// add accumulates the counters' change from before to after.
func (s *runtimeSnap) add(before, after runtimeSnap) {
	s.allocBytes += after.allocBytes - before.allocBytes
	s.gcCycles += after.gcCycles - before.gcCycles
	s.gcCPU += after.gcCPU - before.gcCPU
	s.usedCPU += after.usedCPU - before.usedCPU
	s.procCPU += after.procCPU - before.procCPU
}

// setAlloc reports the end-to-end allocation of ops operations.
func (o *outcome) setAlloc(d runtimeSnap, ops int) {
	o.set("alloc_mb_per_op", ratio(float64(d.allocBytes)/1e6, float64(ops)), "MB")
}

// setGC reports the runtime layer over ops operations.
func (o *outcome) setGC(d runtimeSnap, ops int) {
	o.set("runtime.gc_per_op", ratio(float64(d.gcCycles), float64(ops)), "count")
	o.set("runtime.gc_cpu_share", ratio(d.gcCPU, d.usedCPU), "ratio")
}

// setCost reports the end-to-end cost of ops operations: CPU time, less
// what the host probes spent, and allocation.
func (o *outcome) setCost(d runtimeSnap, h *hostProbe, ops int) {
	o.set("cpu_ms_per_op", ratio(ms(d.procCPU-h.spentCPU), float64(ops)), "ms")
	o.set("alloc_mb_per_op", ratio(float64(d.allocBytes)/1e6, float64(ops)), "MB")
}

// wallSummary describes a window's wall-clock latency and rate for the
// human-readable summary; they are not among the reported metrics (see
// NOTES.md).
func wallSummary(lat []float64, completed int, elapsed time.Duration) string {
	return fmt.Sprintf("wall: op_ms.p25=%.3f op_ms.p50=%.3f ops_s=%.2f",
		quantile(lat, 0.25), quantile(lat, 0.5), ratio(float64(completed), elapsed.Seconds()))
}

// timeSetup runs setup repeatedly (see setupMin) and returns the median
// CPU time of one repetition, in seconds, unadjusted. Each repetition
// after the first starts from a collected heap and a host probe into h
// (see host.go), neither counted; the first is counted from process
// start, so lazy process-level initialisation is counted once, as a user
// would pay it. setup is told whether it is the last repetition, whose
// product the run keeps. The repetitions' median wall time is returned
// for the summary.
func timeSetup(h *hostProbe, setup func(last bool) error) (cpu float64, wall string, err error) {
	var cpus, walls []float64
	first := time.Now()
	wallStart := procStart
	var cpuStart time.Duration
	for last := false; !last; {
		last = len(cpus)+1 >= setupMinReps && time.Since(first) >= setupMin
		if len(cpus) > 0 {
			h.take()
			wallStart, cpuStart = time.Now(), procCPU()
		}
		if err := setup(last); err != nil {
			return 0, "", err
		}
		cpus = append(cpus, (procCPU() - cpuStart).Seconds())
		walls = append(walls, time.Since(wallStart).Seconds())
	}
	return quantile(cpus, 0.5), fmt.Sprintf("set-up: %d repetitions, wall median %.4f s", len(cpus), quantile(walls, 0.5)), nil
}
