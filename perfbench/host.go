package main

import (
	"runtime"
	"time"
)

// Host-speed adjustment. The shared host this benchmark was built on runs
// identical work at speeds that differ by up to 1.6x from one phase of
// seconds or minutes to the next, in CPU time as well as wall time (see
// NOTES.md). A fixed probe kernel run on the same thread right after the
// measured work slows down with it: over 79 consecutive 2-s windows of
// Table 4 sweeps its CPU time correlated 0.93 with the sweeps' CPU time,
// and dividing by it cut the coefficient of variation from 0.164 to 0.070.
//
// The probe is kept apart from the measured program's heap: it allocates
// nothing (it refills one map kept for the whole window), and it runs right
// after a forced collection, so no GC cycle is under way and none can
// start while it runs. It is timed on its second refill, so its table is
// in the cache whatever the program left there: a 40 MB live heap and
// 8 MB of churn before each probe moved it by 2%, against 12% for a
// first refill. Neither the collection nor the probe is part of the
// measured window. Runs report their CPU timings at a reference
// speed: measured × probeRefMs / median(probe CPU time), set-up by the
// probes taken during set-up, the window by the window's. The values
// before the adjustment are printed too (see main.go).

// probeRefMs is the reference probe CPU time, about what the probe takes
// on the host the bounds were set on, so adjusted values stay close to
// measured ones.
const probeRefMs = 0.5

// probeEvery is the interval between probes in a window.
const probeEvery = 250 * time.Millisecond

const probeKeys = 20000

// probeKernel refills m with probeKeys entries. m is sized for them, so
// refilling it does not allocate.
func probeKernel(m map[int]int) {
	clear(m)
	for i := 0; i < probeKeys; i++ {
		m[i*7919] = i
	}
}

// hostProbe collects probe samples between ops.
type hostProbe struct {
	m       map[int]int // the probe's table, made by the first probe
	samples []float64   // CPU ms per probe
	last    time.Time
	// spent and spentCPU are what the collections and probes cost, in
	// wall and CPU time, taken out of the window's.
	spent, spentCPU time.Duration
}

// due reports whether probeEvery has passed since the last probe.
func (h *hostProbe) due() bool { return time.Since(h.last) >= probeEvery }

// maybe takes one probe sample if one is due.
func (h *hostProbe) maybe() {
	if h.due() {
		h.take()
	}
}

// take collects the heap and times one probe in CPU time. The process
// runs at one P and nothing else is runnable when take is called, so the
// process's CPU time over the kernel is the kernel's.
func (h *hostProbe) take() {
	start, startCPU := time.Now(), procCPU()
	runtime.GC()
	if h.m == nil {
		h.m = make(map[int]int, probeKeys)
	}
	probeKernel(h.m) // untimed: the timed run starts from a warm table
	c := procCPU()
	probeKernel(h.m)
	h.samples = append(h.samples, ms(procCPU()-c))
	h.last = time.Now()
	h.spent += h.last.Sub(start)
	h.spentCPU += procCPU() - startCPU
}

// release drops the probe's table, so that the live heap measured after
// the window is the program's.
func (h *hostProbe) release() { h.m = nil }

func (h *hostProbe) medianMs() float64 { return quantile(append([]float64(nil), h.samples...), 0.5) }

// factor is the scale to the reference host speed, probeRefMs over the
// median probe time; 1 without samples.
func (h *hostProbe) factor() float64 {
	if m := h.medianMs(); m > 0 {
		return probeRefMs / m
	}
	return 1
}

// adjust keeps o's measured metrics as o.raw and scales its CPU timings
// to the reference host speed: setup_s by the set-up probes,
// cpu_ms_per_op by the window's.
func (o *outcome) adjust(setup, window *hostProbe) {
	o.raw = make(map[string]metric, len(o.metrics))
	for name, m := range o.metrics {
		o.raw[name] = m
	}
	o.setupProbeMs, o.probeMs = setup.medianMs(), window.medianMs()
	for name, f := range map[string]float64{"setup_s": setup.factor(), "cpu_ms_per_op": window.factor()} {
		m := o.metrics[name]
		m.Value *= f
		o.metrics[name] = m
	}
}
