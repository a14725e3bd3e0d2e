package main

import (
	"math"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts. On a shared virtual machine a vCPU can run at
// about half speed for seconds at a time, most likely while another
// tenant shares its physical core, and the share of such time moves over
// minutes, so one program's CPU time per operation differs by a quarter
// between runs a few minutes apart. A speedometer measures that speed beside every
// timed phase: every few milliseconds it runs a fixed compute chunk, the
// benchmark's own code, on a thread of its own and times it in thread
// CPU time. A phase's slowdown is the mean chunk time over calChunkNs,
// the chunk's time at the host's full speed, and a timing divided by
// the slowdown is that timing at full speed.

// speedEvery is how often the speedometer runs a chunk in a measured
// phase, where a chunk costs about a hundredth of one CPU; set-up, which
// is short, is sampled every setupSpeedEvery.
const (
	speedEvery      = 25 * time.Millisecond
	setupSpeedEvery = 5 * time.Millisecond
)

// calChunkNs is calChunk's thread CPU time at full speed on the 2-vCPU
// Intel Xeon virtual machines the benchmark was built on, where 1200
// chunks took 121–132 µs at full speed and 227–268 µs at half speed.
const calChunkNs = 128_000

// calA and calB are the calibration chunk's fixed inputs.
var calA, calB [64][16]float64

func init() {
	for i := range calA {
		for j := range calA[i] {
			calA[i][j] = math.Sin(float64(i*16 + j))
			calB[i][j] = math.Cos(float64(i*7 + j))
		}
	}
}

// calSink keeps the compiler from dropping calChunk's work.
var calSink float64

// calChunk is an RBF cross-Gram of two fixed 64×16 blocks, the shape
// of the served models' kernel work, written here so that a change to
// the repository's kernels leaves it alone.
func calChunk() {
	s := 0.0
	for i := range calA {
		for k := range calB {
			d := 0.0
			for j := range calA[i] {
				x := calA[i][j] - calB[k][j]
				d += x * x
			}
			s += math.Exp(-0.1 * d)
		}
	}
	calSink += s
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e) // only a bad clock or pointer fails
	}
	return time.Duration(ts.Nano())
}

// speedometer runs calChunk at a fixed pace until stopped.
type speedometer struct {
	busy   atomic.Int64 // chunk CPU time so far, in ns
	chunks atomic.Int64
	stop   chan struct{}
	done   chan struct{}
}

func startSpeedometer(every time.Duration) *speedometer {
	s := &speedometer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				t0 := threadCPU()
				calChunk()
				s.busy.Add(int64(threadCPU() - t0))
				s.chunks.Add(1)
			}
		}
	}()
	return s
}

// halt stops the speedometer and waits for its goroutine.
func (s *speedometer) halt() {
	close(s.stop)
	<-s.done
}

// reading is the speedometer's totals at one instant.
type reading struct {
	busy   time.Duration
	chunks int64
}

func (s *speedometer) read() reading {
	return reading{time.Duration(s.busy.Load()), s.chunks.Load()}
}

// slowdown is the mean chunk time between two readings over calChunkNs:
// 1 at full speed, about 2 at half speed, and 1 when no chunk ran.
func slowdown(from, to reading) float64 {
	n := to.chunks - from.chunks
	if n <= 0 {
		return 1
	}
	return float64(to.busy-from.busy) / float64(n) / calChunkNs
}
