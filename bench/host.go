package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// The benchmark's hosts are shared virtual machines whose speed drifts
// by tens of percent over minutes as other tenants load them; on a
// 2-vCPU host, ten runs of sweep-large-paired within ten minutes ran at
// 56 to 91 scenarios/s, and eight runs of the same seed at 76 to 109.
// Each run therefore measures the host with a fixed kernel after every
// cell and reports its end-to-end metrics in reference seconds: each
// cell's seconds times the host speed measured right after it, that is
// seconds of a host running the kernel at referenceSpeed. A cell's
// duration and the kernel's correlate (0.7 over 1 s cells of one fixed
// input), and measuring after every cell tracks the drift better than
// bursts of measurements a few seconds apart. Over ten 20 s runs per
// workload, one seed each, this cut the spread (interquartile range over
// median) of scenarios_per_s from 0.127 to 0.012 on sweep-large-paired
// and from 0.116 to 0.078 on sweep-medium.

// referenceSpeed is the calibration kernel's median rate right after a
// cell, in kernel runs per second, on the 2-vCPU host of the first
// trajectory entry in README.md.
const referenceSpeed = 5.8

// calibrationSink keeps the kernel's result live.
var calibrationSink int

// calibrate runs the kernel once on poolSize goroutines and returns the
// host's speed relative to the reference host. The kernel does the
// kinds of work a scenario spends its time on — allocating and filling
// large buffers, updating a map, sorting — and calls no code of the
// repository, so only the host moves it. It collects its garbage before
// returning, so that the next cell does not pay for it.
func calibrate() float64 {
	start := time.Now()
	results := make([]int, poolSize)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for k := 0; k < 24; k++ {
				buf := make([]byte, 4<<20)
				for i := 0; i < len(buf); i += 64 {
					buf[i] = byte(i)
				}
				m := make(map[int]int)
				xs := make([]int, 30000)
				x := uint64(k + 1)
				for i := range xs {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					xs[i] = int(x % 100000)
					m[xs[i]] += i
				}
				sort.Ints(xs)
				n += int(buf[len(buf)-64]) + len(m) + xs[0]
			}
			results[g] = n
		}()
	}
	wg.Wait()
	speed := 1 / time.Since(start).Seconds() / referenceSpeed
	for _, n := range results {
		calibrationSink += n
	}
	runtime.GC()
	return speed
}
