package native

import (
	"sync"
)

// Pool is a persistent worker pool: one long-lived goroutine per slot
// beyond the first, each parked on its own signal channel. Dispatching
// work wakes exactly the workers a kernel needs and runs slot 0's share
// on the calling goroutine, so a steady-state SpMV neither spawns
// goroutines nor allocates. The pool is the fork/join-free execution
// substrate the paper's overhead analysis (Section IV-D) assumes: all
// orchestration cost is paid once, at construction. An Executor sizes
// its pool at the model's hardware threads; a kernel dispatches
// min(that, GOMAXPROCS) slots, or fewer when its matrix is small.
type Pool struct {
	size  int
	start []chan struct{} // start[1:size] signal the parked workers

	// mu serializes dispatches: fn and wg are shared by all workers for
	// the duration of one barrier.
	mu     sync.Mutex
	fn     func(t int)
	wg     sync.WaitGroup
	closed bool

	closeOnce sync.Once
}

// NewPool starts a pool with the given number of slots (minimum 1).
// Slot 0 belongs to the dispatching goroutine; size-1 workers park
// immediately and stay parked until Run or Close.
func NewPool(size int) *Pool {
	if size < 1 {
		size = 1
	}
	p := &Pool{size: size, start: make([]chan struct{}, size)}
	for t := 1; t < size; t++ {
		ch := make(chan struct{}, 1)
		p.start[t] = ch
		go p.worker(t, ch)
	}
	return p
}

// worker parks on its channel and executes the current dispatch's fn
// for its slot each time it is signalled. The channel send in Run
// happens-before the receive here, so reading p.fn is race-free.
func (p *Pool) worker(t int, ch chan struct{}) {
	for range ch {
		p.fn(t)
		p.wg.Done()
	}
}

// Size returns the number of slots.
func (p *Pool) Size() int { return p.size }

// Run executes fn(t) for every t in [0, nt) and returns when all calls
// have finished. Slots beyond the pool size — and every slot after
// Close — fall back to freshly spawned goroutines, so Run is always
// correct; it is only allocation-free when nt fits the live pool.
func (p *Pool) Run(nt int, fn func(t int)) {
	if nt <= 1 {
		fn(0)
		return
	}
	p.mu.Lock()
	if p.closed || nt > p.size {
		p.mu.Unlock()
		spawnRun(nt, fn)
		return
	}
	p.fn = fn
	p.wg.Add(nt - 1)
	for t := 1; t < nt; t++ {
		p.start[t] <- struct{}{}
	}
	fn(0)
	p.wg.Wait()
	p.fn = nil
	p.mu.Unlock()
}

// Close terminates the parked workers. It is idempotent and safe to
// call concurrently with Run: in-flight dispatches complete, later ones
// fall back to spawned goroutines.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		for t := 1; t < p.size; t++ {
			close(p.start[t])
		}
		p.mu.Unlock()
	})
}

// spawnRun is the transient fork/join path: Run's fallback for a
// closed pool or a dispatch wider than the pool.
func spawnRun(nt int, fn func(t int)) {
	var wg sync.WaitGroup
	for t := 0; t < nt; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			fn(t)
		}(t)
	}
	wg.Wait()
}
