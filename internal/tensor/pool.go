package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the persistent worker pool behind the parallel
// kernels. Design notes live in DESIGN.md; the short version:
//
//   - Workers are lazily started once and live for the process lifetime,
//     so the hot path never pays a goroutine spawn.
//   - A parallel invocation is described by a job carrying typed operands
//     (not a closure), so dispatching allocates nothing: closures passed
//     across goroutines escape to the heap, kernel kinds do not.
//   - Jobs are recycled through a sync.Pool, and workers plus the
//     submitting goroutine claim row chunks from a shared atomic cursor,
//     which load-balances skewed rows without per-chunk channel traffic.

// kernelKind enumerates the range kernels the pool can run.
type kernelKind uint8

const (
	kMatMul kernelKind = iota
	kMatMulBiasReLU
	kMatMulTransB
	kMatMulTransAAcc
	kEncodeHalf
	kDecodeHalf
)

// convChunk is the element-block granularity for pooled dtype
// conversions: jobs partition the flat element space into blocks of
// this size and the row cursor walks blocks instead of matrix rows.
const convChunk = 4096

// job is one parallel kernel invocation over the row space [0, rows).
type job struct {
	kind kernelKind
	dst  *Matrix
	a, b *Matrix
	bias []float32
	relu bool

	// dtype-conversion operands (kEncodeHalf / kDecodeHalf)
	hu []uint16
	hf []float32
	dt DType

	rows   int
	chunk  int
	cursor atomic.Int64
	done   sync.WaitGroup
}

// runRange executes the job's kernel over rows [r0, r1).
func (j *job) runRange(r0, r1 int) {
	switch j.kind {
	case kMatMul:
		matMulRange(j.dst, j.a, j.b, r0, r1)
	case kMatMulBiasReLU:
		matMulBiasReLURange(j.dst, j.a, j.b, j.bias, j.relu, r0, r1)
	case kMatMulTransB:
		matMulTransBRange(j.dst, j.a, j.b, r0, r1)
	case kMatMulTransAAcc:
		matMulTransAAccRange(j.dst, j.a, j.b, r0, r1)
	case kEncodeHalf:
		lo, hi := convRange(r0, r1, len(j.hf))
		Encode(j.dt, j.hu[lo:hi], j.hf[lo:hi])
	case kDecodeHalf:
		lo, hi := convRange(r0, r1, len(j.hu))
		Decode(j.dt, j.hf[lo:hi], j.hu[lo:hi])
	}
}

// convRange maps a block range onto element bounds clamped to n.
func convRange(r0, r1, n int) (int, int) {
	lo, hi := r0*convChunk, r1*convChunk
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// drain claims chunks from the cursor until the row space is exhausted.
func (j *job) drain() {
	for {
		r0 := int(j.cursor.Add(int64(j.chunk))) - j.chunk
		if r0 >= j.rows {
			return
		}
		r1 := r0 + j.chunk
		if r1 > j.rows {
			r1 = j.rows
		}
		j.runRange(r0, r1)
	}
}

var (
	poolOnce    sync.Once
	poolCh      chan *job
	poolWorkers int
	jobPool     = sync.Pool{New: func() any { return new(job) }}
)

// startPool spawns the persistent helpers. The count is fixed at first
// use: GOMAXPROCS-1 helpers (the submitter is the remaining worker), with
// a floor of 2 so tests that raise GOMAXPROCS after init still exercise
// true cross-goroutine execution.
func startPool() {
	poolWorkers = runtime.GOMAXPROCS(0) - 1
	if poolWorkers < 2 {
		poolWorkers = 2
	}
	poolCh = make(chan *job)
	for i := 0; i < poolWorkers; i++ {
		go func() {
			for j := range poolCh {
				j.drain()
				j.done.Done()
			}
		}()
	}
}

// dispatch runs the kernel serially when the FLOP estimate is below
// parallelThreshold (or only one P is available) and through the worker
// pool otherwise. The serial path performs zero allocations; the parallel
// path recycles its job and so is allocation-free at steady state.
func dispatch(kind kernelKind, dst, a, b *Matrix, bias []float32, relu bool, rows, work int) {
	if rows == 0 {
		return
	}
	if work < parallelThreshold || rows < 2 || runtime.GOMAXPROCS(0) < 2 {
		j := job{kind: kind, dst: dst, a: a, b: b, bias: bias, relu: relu}
		j.runRange(0, rows)
		return
	}
	poolOnce.Do(startPool)
	j := jobPool.Get().(*job)
	j.kind, j.dst, j.a, j.b, j.bias, j.relu = kind, dst, a, b, bias, relu
	j.rows = rows
	// ~4 chunks per participant keeps the cursor cheap while still
	// smoothing uneven per-row cost.
	j.chunk = rows / (4 * (poolWorkers + 1))
	if j.chunk < 1 {
		j.chunk = 1
	}
	j.cursor.Store(0)
	// Hand the job to idle helpers only: if every helper is busy (e.g.
	// many Hogwild threads issuing matmuls at once) the submitter simply
	// does the work itself, which self-balances the pool.
fanout:
	for i := 0; i < poolWorkers; i++ {
		j.done.Add(1)
		select {
		case poolCh <- j:
		default:
			j.done.Done()
			break fanout
		}
	}
	j.drain()
	j.done.Wait()
	j.dst, j.a, j.b, j.bias = nil, nil, nil, nil
	j.hu, j.hf = nil, nil
	jobPool.Put(j)
}

// dispatchConv runs a bulk dtype conversion over n elements, serially
// below the work threshold and through the worker pool above it. The
// conversion kernels cost a handful of integer ops per element, so the
// work estimate is 4*n to share parallelThreshold's FLOP scale.
func dispatchConv(kind kernelKind, dt DType, u []uint16, f []float32, n int) {
	if n == 0 {
		return
	}
	blocks := (n + convChunk - 1) / convChunk
	if 4*n < parallelThreshold || blocks < 2 || runtime.GOMAXPROCS(0) < 2 {
		j := job{kind: kind, dt: dt, hu: u, hf: f}
		j.runRange(0, blocks)
		return
	}
	poolOnce.Do(startPool)
	j := jobPool.Get().(*job)
	j.kind, j.dt, j.hu, j.hf = kind, dt, u, f
	j.dst, j.a, j.b, j.bias, j.relu = nil, nil, nil, nil, false
	j.rows = blocks
	j.chunk = blocks / (4 * (poolWorkers + 1))
	if j.chunk < 1 {
		j.chunk = 1
	}
	j.cursor.Store(0)
fanout:
	for i := 0; i < poolWorkers; i++ {
		j.done.Add(1)
		select {
		case poolCh <- j:
		default:
			j.done.Done()
			break fanout
		}
	}
	j.drain()
	j.done.Wait()
	j.hu, j.hf = nil, nil
	jobPool.Put(j)
}

// ParallelEncode narrows src into dst[:len(src)] using dt, spreading
// element blocks across the worker pool for large slices (bulk table
// re-quantization); small slices run serially and allocation-free.
func ParallelEncode(dt DType, dst []uint16, src []float32) {
	dispatchConv(kEncodeHalf, dt, dst[:len(src)], src, len(src))
}

// ParallelDecode widens src into dst[:len(src)] using dt.
func ParallelDecode(dt DType, dst []float32, src []uint16) {
	dispatchConv(kDecodeHalf, dt, src, dst[:len(src)], len(src))
}
