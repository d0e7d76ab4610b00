package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts by up
// to a quarter over minutes. Every timed end-to-end figure is therefore
// scaled to a reference host speed: through a run the benchmark times
// fixed reference kernels that do not depend on the repository's code,
// and multiplies its timings by refNominal over their median. A change to
// the program moves the program's times but not the kernels', so it shows
// in full; a slow or fast spell of the host moves both and cancels.

// refNominal is the reference time (the geometric mean of the kernel
// times) on the 2-core host the benchmark was sized on.
const refNominal = 4700 * time.Microsecond

// refEvery is how often, at most, operations are interrupted to time the
// kernels.
const refEvery = time.Second

// refKernels mirror what the program spends its time on: integer and
// branch work, dependent loads over a table larger than the core's own
// caches, small allocations, and file reads. They must not depend on what
// the program left behind, or a change to the program could move the
// reference: the table is walked once before it is timed, the
// allocations fit in the heap's headroom after a collection so none is
// triggered, and the file is only read.
var refKernels = []func(g int, path string) uint64{aluKernel, chaseKernel, allocKernel, fileKernel}

func aluKernel(g int, _ string) uint64 {
	x := uint64(g) + 7
	var acc uint64
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&3 == 0 {
			acc += x >> 3
		} else {
			acc ^= x
		}
	}
	return acc
}

// chaseTable is 4 MB of indices forming one random cycle (Sattolo's
// shuffle): chaseTable[i] is the index after i. refTime walks it in order
// before it is timed, so it starts in the shared cache whatever the
// program touched before.
var chaseTable = func() []uint32 {
	const n = 1 << 20
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	return next
}()

func chaseKernel(g int, _ string) uint64 {
	p := uint32(g * 977)
	for i := 0; i < 150_000; i++ {
		p = chaseTable[p]
	}
	return uint64(p)
}

type refNode struct {
	next *refNode
	v    [6]uint64
}

// allocKernel allocates 1 MB per goroutine, under the 4 MB the heap may
// grow by after a collection.
func allocKernel(g int, _ string) uint64 {
	var head *refNode
	var acc uint64
	for i := 0; i < 16_000; i++ {
		head = &refNode{next: head, v: [6]uint64{uint64(g + i)}}
		if i%64 == 63 {
			for q := head; q != nil; q = q.next {
				acc += q.v[0]
			}
			head = nil
		}
	}
	return acc
}

// fileKernel reads a 16 KB file that refTime wrote before.
func fileKernel(_ int, path string) uint64 {
	var acc uint64
	for i := 0; i < 200; i++ {
		b, err := os.ReadFile(path)
		if err != nil {
			return acc
		}
		acc += uint64(len(b))
	}
	return acc
}

var refSink uint64

// refTime times each kernel on procs goroutines at once and returns the
// geometric mean of the times. It collects garbage first, so what earlier
// operations left behind is not timed with the kernels.
func refTime(dir string) time.Duration {
	path := filepath.Join(dir, "ref")
	if err := os.WriteFile(path, make([]byte, 16<<10), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: reference file: %v\n", err)
	}
	for _, v := range chaseTable {
		refSink += uint64(v)
	}
	runtime.GC()
	var logSum float64
	for _, k := range refKernels {
		var wg sync.WaitGroup
		var mu sync.Mutex
		t0 := time.Now()
		for g := 0; g < procs; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				v := k(g, path)
				mu.Lock()
				refSink += v
				mu.Unlock()
			}(g)
		}
		wg.Wait()
		logSum += math.Log(float64(time.Since(t0)))
	}
	return time.Duration(math.Exp(logSum / float64(len(refKernels))))
}

// calibrate times the reference kernels if refEvery has passed since it
// last did, or if force is set.
func (r *runner) calibrate(force bool) {
	if !force && len(r.refs) > 0 && time.Since(r.lastRef) < refEvery {
		return
	}
	r.refs = append(r.refs, refTime(r.env.work))
	r.lastRef = time.Now()
}

// hostScale is what the run's timings are multiplied by: refNominal over
// the median reference time, 1 if none was taken.
func (r *runner) hostScale() float64 {
	if len(r.refs) == 0 {
		return 1
	}
	return float64(refNominal) / float64(median(r.refs))
}
