package experiments

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestParallelMatchesSerial runs every experiment serially and on three
// workers and requires byte-identical CSV output — the engine's core
// determinism contract (per-task RNGs derived as seed^index, results
// reassembled in index order).
func TestParallelMatchesSerial(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			opts := RunOptions{Scale: quickScale, Workers: 1}
			serial, err := Run(context.Background(), id, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Workers = 3
			par, err := Run(context.Background(), id, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := par.String(), serial.String(); got != want {
				t.Errorf("workers=3 output differs from serial\nserial:\n%.400s\nparallel:\n%.400s", want, got)
			}
		})
	}
}

// Cancelling mid-sweep must surface ctx.Err() promptly from every runner,
// serial or parallel.
func TestRunnerCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, id := range []string{"fig3", "fig10c", "fig9", "ablation-threshold"} {
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // cancelled before the first task: nothing should run
			done := make(chan error, 1)
			go func() {
				_, err := Run(ctx, id, RunOptions{Scale: 1, Workers: workers})
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("%s workers=%d: err = %v, want context.Canceled", id, workers, err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("%s workers=%d: cancellation did not return promptly", id, workers)
			}
		}
	}
}

// Cancelling while tasks are in flight (not before) must also stop the run
// early; the per-packet ctx checks inside the task bodies make this prompt
// even at publication scale.
func TestRunnerCancellationMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, "fig10c", RunOptions{Scale: 1, Workers: 4})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("mid-flight cancellation did not return promptly")
	}
}
