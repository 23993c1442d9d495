// Package pool is the deterministic parallel execution engine behind the
// experiment sweeps: it runs N independent point-tasks across a bounded set
// of worker goroutines while guaranteeing that the results are bit-identical
// to a serial run.
//
// Determinism rests on two rules. First, task i never shares a random
// stream with any other task: it receives a private *rand.Rand seeded
// seed^i (the per-task seed derivation DESIGN.md documents), so the noise,
// payload, and placement draws a task makes are a pure function of
// (seed, i) regardless of which worker executes it or in what order.
// Second, tasks communicate results only through caller-owned, per-index
// slots (each closure writes results for its own index), so assembly order
// is the index order, not the completion order. Under those two rules
// ForEach with 1 worker and ForEach with GOMAXPROCS workers produce the
// same bytes.
//
// Cancellation is cooperative: the pool checks the context between tasks
// and long-running task bodies are expected to poll ctx themselves (the
// experiment runners check once per simulated packet).
package pool

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// TaskSeed derives the RNG seed for task index i from the sweep seed: the
// XOR scheme keeps every task's stream independent of worker scheduling
// while remaining trivially reproducible by hand.
func TaskSeed(seed int64, i int) int64 { return seed ^ int64(i) }

// TaskRNG returns task i's private random stream.
func TaskRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(TaskSeed(seed, i)))
}

// Workers normalizes a worker-count request: values <= 0 select
// runtime.GOMAXPROCS(0), and the result is clamped to n so a small sweep
// never spawns idle goroutines.
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PanicError is a task panic that ForEach recovered and reported as the
// task's error.
type PanicError struct {
	// Index is the task that panicked.
	Index int
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: task %d panicked: %v", e.Index, e.Value)
}

// runTask runs task i, turning a panic in fn into a *PanicError.
func runTask(fn func(i int, rng *rand.Rand) error, i int, seed int64) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(i, TaskRNG(seed, i))
}

// ForEach runs fn(i, rng) for every i in [0, n) across at most `workers`
// goroutines (workers <= 0 selects GOMAXPROCS) and returns the error of the
// lowest-indexed failing task, or ctx.Err() if the context was cancelled
// first. fn receives task i's private RNG (seeded TaskSeed(seed, i)) and
// must write its result only into caller-owned state for index i; under
// that contract the output is bit-identical for every worker count.
//
// A task that panics fails with a *PanicError under the same
// lowest-index rule, so a panic never escapes the pool.
//
// On cancellation in-flight tasks finish their current body (cooperatively
// polling ctx) but no new tasks start. On failure no task above the
// failing index starts, while lower indices still run.
func ForEach(ctx context.Context, workers, n int, seed int64, fn func(i int, rng *rand.Rand) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers, n)
	if workers == 1 {
		// Serial fast path: no goroutines, same per-task seeding.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := runTask(fn, i, seed); err != nil {
				return err
			}
		}
		return nil
	}

	// Parallel path: a shared atomic cursor hands out indices in order.
	// A failure stops every index above it from starting, but indices
	// below it still run, so the lowest failing index is always found and
	// reported, as on the serial path.
	var (
		next     atomic.Int64
		failIdx  atomic.Int64 // lowest failing index so far; n when none
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	failIdx.Store(int64(n))
	fail := func(i int, err error) {
		mu.Lock()
		if int64(i) < failIdx.Load() {
			firstErr = err
			failIdx.Store(int64(i))
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || int64(i) > failIdx.Load() || ctx.Err() != nil {
					return
				}
				if err := runTask(fn, i, seed); err != nil {
					fail(i, err)
				}
			}
		}()
	}
	wg.Wait()
	// The caller's cancellation outranks any error a dying task reported.
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}
