package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: a fixed CPU loop on it moved
// by ±15% over tens of seconds, and runs of one binary minutes apart
// differed by up to 40% in wall and CPU time. That drift is wider than any
// bound a timing metric may have, so every timing is reported in
// reference seconds: the host time of the interval, scaled by
// calRefS / (the calibration kernel's host time measured around it). A
// program change cannot move the kernel (it uses only the runtime and the
// stdlib), so a real gain or loss shows in full; host drift cancels to the
// extent it slows the kernel and the simulator alike.
const (
	calSteps = 1 << 19
	// calRefS is the kernel's nominal time on the reference host: one
	// where calSteps steps take 25 ms (20–42 ms on the two-vCPU Xeon host
	// the benchmark was tuned on, as its speed drifted).
	calRefS = 0.025
)

// calibrator is a fixed kernel shaped like the simulator's hot paths:
// pointer chasing through a random cycle of 4 MiB (off the Go heap, so it
// never shows in live_heap_mb) and runtime map updates. It allocates
// nothing after construction, so it does not interact with the GC state
// the workload leaves behind.
type calibrator struct {
	next []uint32
	m    map[uint64]uint64
	sink uint64
}

const calNodes = 1 << 20

func newCalibrator() *calibrator {
	mem, err := syscall.Mmap(-1, 0, calNodes*4, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("perfbench: mmap calibration memory: " + err.Error())
	}
	c := &calibrator{
		next: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calNodes),
		m:    make(map[uint64]uint64, 1024),
	}
	// A single random cycle through every node (Sattolo's shuffle), built
	// in place: order holds the cycle, next links each node to its successor.
	order := make([]uint32, calNodes)
	for i := range order {
		order[i] = uint32(i)
	}
	x := uint64(7)
	for i := calNodes - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int(x>>33) % i
		order[i], order[j] = order[j], order[i]
	}
	for i, n := range order {
		c.next[n] = order[(i+1)%calNodes]
	}
	c.run() // fills the map's 1024 keys, so later runs allocate nothing
	return c
}

// run executes the kernel and returns its wall and CPU seconds.
func (c *calibrator) run() (wall, cpu float64) {
	t0, c0 := time.Now(), cpuSeconds()
	i, x := uint32(0), c.sink
	for k := 0; k < calSteps; k++ {
		i = c.next[i]
		x = x*6364136223846793005 + uint64(i)
		c.m[x>>54] += x
	}
	c.sink = x
	return time.Since(t0).Seconds(), cpuSeconds() - c0
}
