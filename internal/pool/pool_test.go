package pool

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestForEachDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 64
	run := func(workers int) []float64 {
		out := make([]float64, n)
		err := ForEach(context.Background(), workers, n, 7, func(i int, rng *rand.Rand) error {
			// A few draws so stream identity, not just the seed, matters.
			v := 0.0
			for k := 0; k < 5; k++ {
				v += rng.NormFloat64()
			}
			out[i] = v
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, w := range []int{2, 4, 16, 0} {
		got := run(w)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: slot %d = %v, want %v (not bit-identical to serial)", w, i, got[i], serial[i])
			}
		}
	}
}

func TestForEachTaskSeedDerivation(t *testing.T) {
	if TaskSeed(5, 0) != 5 {
		t.Errorf("TaskSeed(5,0) = %d", TaskSeed(5, 0))
	}
	if TaskSeed(5, 3) != 5^3 {
		t.Errorf("TaskSeed(5,3) = %d", TaskSeed(5, 3))
	}
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		s := TaskSeed(1, i)
		if seen[s] {
			t.Fatalf("duplicate task seed %d at index %d", s, i)
		}
		seen[s] = true
	}
}

func TestForEachPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	for _, w := range []int{1, 4} {
		err := ForEach(context.Background(), w, 32, 1, func(i int, rng *rand.Rand) error {
			if i == 9 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: err = %v, want boom", w, err)
		}
	}
}

// TestForEachRecoversPanics: a panicking task fails ForEach with a
// *PanicError carrying its index, value and stack, on the serial and the
// parallel path alike, and the lowest failing index wins whether the
// lower failure is a panic or an ordinary error.
func TestForEachRecoversPanics(t *testing.T) {
	boom := errors.New("boom")
	for _, w := range []int{1, 2, 4} {
		err := ForEach(context.Background(), w, 32, 1, func(i int, rng *rand.Rand) error {
			if i == 7 || i == 20 {
				panic(fmt.Sprintf("task %d", i))
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want a *PanicError", w, err)
		}
		if pe.Index != 7 || pe.Value != "task 7" || !strings.Contains(string(pe.Stack), "TestForEachRecoversPanics") {
			t.Errorf("workers=%d: panic error = index %d, value %v, stack:\n%s", w, pe.Index, pe.Value, pe.Stack)
		}
		if want := "pool: task 7 panicked: task 7"; err.Error() != want {
			t.Errorf("workers=%d: error text %q, want %q", w, err.Error(), want)
		}

		err = ForEach(context.Background(), w, 32, 1, func(i int, rng *rand.Rand) error {
			switch i {
			case 3:
				return boom
			case 10:
				panic("late")
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: err = %v, want the lower-index boom", w, err)
		}
	}
}

func TestForEachCancellation(t *testing.T) {
	for _, w := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{}, 1)
		done := make(chan error, 1)
		go func() {
			done <- ForEach(ctx, w, 1_000_000, 1, func(i int, rng *rand.Rand) error {
				select {
				case started <- struct{}{}:
				default:
				}
				return nil
			})
		}()
		<-started
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d: err = %v, want context.Canceled", w, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("workers=%d: ForEach did not return after cancellation", w)
		}
	}
}

func TestForEachPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := ForEach(ctx, 4, 10, 1, func(i int, rng *rand.Rand) error {
		ran = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("task ran under a pre-cancelled context")
	}
}

func TestForEachZeroTasks(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, 1, nil); err != nil {
		t.Errorf("n=0: %v", err)
	}
}

func TestWorkersClamp(t *testing.T) {
	if got := Workers(8, 3); got != 3 {
		t.Errorf("Workers(8,3) = %d", got)
	}
	if got := Workers(0, 100); got < 1 {
		t.Errorf("Workers(0,100) = %d", got)
	}
	if got := Workers(-1, 100); got < 1 {
		t.Errorf("Workers(-1,100) = %d", got)
	}
}
