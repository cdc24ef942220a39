package main

import (
	"reflect"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts. When the machine is busy (other guests on the
// sibling hyperthreads and in the shared caches), a thread gets less done
// per CPU second, so the same pass costs more CPU time: on the 2-vCPU
// host the benchmark was tuned on, a fixed loop's CPU time per iteration
// swings between 9 and 15 ns within a second, and whole sets of runs read
// 44-122% more CPU time than sets taken half an hour earlier, on every
// workload at once. The benchmark measures that speed with a fixed loop
// of its own, sampled briefly after every job of a timed pass so the
// samples spread over the pass as evenly as its jobs, and scales every
// CPU time of the run by the mean: the end-to-end CPU times are CPU
// seconds at the loop's reference speed. The loop is the benchmark's
// code, not the program's, so a change to the program cannot move it;
// the samples' own time is taken out of the pass's.
//
// The loop follows table3_kernels and checked_stress closely: between a
// quiet and a busy set of runs their raw CPU times rose 44% and 67%, and
// their scaled ones 3% and 6%. It over-corrects served_jobs, whose short
// jobs leave the table in the shared cache on a quiet host: there raw
// CPU time rose 122%, the loop's time per iteration 209%, and the scaled
// figures fell by a third.

// calTable is the loop's working set: 8 MB, beyond a core's private
// caches, so the loop, like the simulator, depends on the shared cache.
var calTable = make([]uint64, 1<<20)

// calNsPerIter is the loop's thread CPU time per iteration at the
// reference speed: about its median on the host the benchmark was tuned
// on (2-vCPU Intel Xeon guest), so scaled CPU times read close to raw
// ones there.
const calNsPerIter = 10.0

// calShare is the share of a job's CPU time spent sampling after it;
// calMinIters keeps the samples after short jobs measurable.
const (
	calShare    = 0.05
	calMinIters = 50_000
)

var calSink uint64

// calLoopName is calLoop's symbol name, as CPU profiles record it.
var calLoopName = runtime.FuncForPC(reflect.ValueOf(calLoop).Pointer()).Name()

// calLoop runs n iterations of random reads, writes and branches over
// calTable. CPU profiles leave its samples out, by its name.
//
//go:noinline
func calLoop(n int) uint64 {
	x := uint64(88172645463325252)
	mask := uint64(len(calTable) - 1)
	var acc uint64
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		v := calTable[j]
		if v&1 == 0 {
			acc += v >> 3
		} else {
			acc ^= v * 31
		}
		calTable[(j*7)&mask] = v + x
	}
	return acc
}

// calibration sums the loop's samples over a run. A nil *calibration
// takes no samples.
type calibration struct {
	chunk int           // iterations per sample
	iters int           // iterations run
	cpu   time.Duration // their thread CPU time
	wall  time.Duration // their wall-clock time
}

// newCalibration sizes the samples for a workload whose warm-up pass
// took passCPU over jobs jobs.
func newCalibration(passCPU time.Duration, jobs int) *calibration {
	return &calibration{chunk: max(calMinIters, int(calShare*float64(passCPU)/float64(max(jobs, 1))/calNsPerIter))}
}

// gap takes one sample, on a locked thread, of the thread CPU time,
// which leaves out time stolen by the hypervisor and the process's other
// threads.
func (c *calibration) gap() {
	if c == nil {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	w0, t0 := time.Now(), threadCPU()
	calSink += calLoop(c.chunk)
	c.cpu += threadCPU() - t0
	c.wall += time.Since(w0)
	c.iters += c.chunk
}

// scale is the factor that turns this run's CPU times into CPU times at
// the reference speed; 1 before any sample.
func (c *calibration) scale() float64 {
	if c == nil || c.iters == 0 || c.cpu <= 0 {
		return 1
	}
	return calNsPerIter * float64(c.iters) / float64(c.cpu)
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
