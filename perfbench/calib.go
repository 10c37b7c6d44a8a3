package main

import (
	"sync"
	"time"
)

// Host-speed calibration. The hosts this benchmark runs on are shared
// virtual machines whose speed drifts by tens of percent over minutes, so
// raw host seconds from two sets of runs are not comparable. After every
// cell, with no simulator runtime live, the benchmark times a fixed kernel
// that uses no repository code, and scales each round's host times by
// calibRefNS / (the round's median kernel time). A simulator change cannot
// move the kernel, so the scaled metrics keep its effect and drop the
// host's drift. The raw figures are printed and reported too.
//
// The kernel runs on as many goroutines as the workload keeps busy: one
// for the deterministic workloads, whose lockstep baton runs one worker at
// a time, and GOMAXPROCS for the host-scheduled one. The widths matter on
// the defining host, where two busy threads sometimes each run at half
// speed while one thread alone does not slow down.

// calibRefNS is about the kernel's median duration on the host the
// benchmark was defined on (Intel Xeon, 2 vCPUs), so scaled figures read
// as seconds at that host's speed.
const calibRefNS = 10_000_000

// calibIters is the kernel's work per goroutine.
const calibIters = 1 << 20

// calibWords sizes each goroutine's table: 512 KiB, beyond a core's L1
// and within its L2, like the simulator's hot tag arrays.
const calibWords = 1 << 16

var calibTables [][]uint64

// calibrate runs the kernel on n goroutines at once and returns the host
// ns the slowest took.
func calibrate(n int) int64 {
	for len(calibTables) < n {
		calibTables = append(calibTables, make([]uint64, calibWords))
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(t []uint64, x uint64) {
			defer wg.Done()
			for i := 0; i < calibIters; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				j := x & (calibWords - 1)
				if t[j]&1 == 0 {
					t[j] += x
				} else {
					t[j] ^= x >> 3
				}
			}
		}(calibTables[g], uint64(g)*0x9E3779B97F4A7C15+1)
	}
	wg.Wait()
	return int64(time.Since(t0))
}
