package main

import (
	"slices"
	"sync"
	"sync/atomic"
)

// The host this benchmark runs on is shared, and the speed a core
// gives a program drifts by a fifth and more within seconds and from
// minute to minute, with what other tenants run beside it. A slow
// spell stretches every CPU-bound call alike, the median as much as
// the tail, so no statistic over wall time removes it.
//
// The calibration kernel is a fixed CPU-bound computation, unrelated
// to the code under test (sorting pseudo-random keys, as the search
// sorts and scans its queue and profile). It runs on the thread that
// just ran Decide, at most once every calEvery of benchmark time, so
// its timings sample the core's speed all through every unit. The
// decide_p50_cal metric is each unit's Decide median divided by the
// median kernel time in that unit: a change to the scheduler moves
// it, a change in the host's speed cancels out of it. Measured on a
// shared 2-vCPU VM over 90 s, 0.5 s windows of Decide time spread by
// 0.22 (IQR over median) and their ratio to the kernel by 0.09.
//
// Kernel runs are benchmark overhead, not program time: now() leaves
// them out, so no measured interval contains one.

const (
	// calKeys and calItems size the kernel: a sort of calKeys
	// integers and a comparator sort of calItems records, about
	// 0.2 ms in all on a 2.1 GHz Xeon.
	calKeys  = 2048
	calItems = 512
	// calEvery is the benchmark time between two kernel runs, in
	// nanoseconds: a few per cent of the run.
	calEvery = 5e6
)

// calSpent is the total time kernel runs took; now() subtracts it.
var calSpent atomic.Int64

// calibrator runs and times the kernel. One serves a whole run.
type calibrator struct {
	mu    sync.Mutex
	last  int64
	keys  []uint32
	items []calItem
	sink  uint64
}

type calItem struct {
	key       float64
	id, order int64
}

func newCalibrator() *calibrator {
	return &calibrator{keys: make([]uint32, calKeys), items: make([]calItem, calItems)}
}

// maybe runs the kernel when calEvery has passed since its last run
// and returns how long it took, or 0 when it did not run. t is the
// benchmark time now. A call while another is running the kernel
// does nothing.
func (c *calibrator) maybe(t int64) int64 {
	if c == nil || !c.mu.TryLock() {
		return 0
	}
	defer c.mu.Unlock()
	if t-c.last < calEvery {
		return 0
	}
	t0 := now()
	c.kernel()
	d := now() - t0
	calSpent.Add(d)
	c.last = t
	return d
}

func xorshift(x uint32) uint32 {
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	return x
}

// kernel is one run of the calibration kernel. Every run does the
// same work.
func (c *calibrator) kernel() {
	x := uint32(2463534242)
	for i := range c.keys {
		x = xorshift(x)
		c.keys[i] = x
	}
	slices.Sort(c.keys)
	for i := range c.items {
		x = xorshift(x)
		c.items[i] = calItem{key: float64(x%1000) / float64(1+x%37), id: int64(x >> 3), order: int64(i)}
	}
	slices.SortFunc(c.items, func(a, b calItem) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		}
		return int(a.id - b.id)
	})
	c.sink += uint64(c.keys[calKeys/2]) + uint64(c.items[0].order)
}
