package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"cos/internal/pool"
)

// replayExecutor stands in for a remote fleet: it computes each record
// with its own TaskSet instance and the spec-derived RNG, exactly as a
// cos-serve backend running a figure_task job would.
type replayExecutor struct {
	t     *testing.T
	calls int
}

func (e *replayExecutor) ExecTasks(ctx context.Context, id string, opts RunOptions, n int) ([]json.RawMessage, error) {
	e.calls++
	recs := make([]json.RawMessage, n)
	for i := 0; i < n; i++ {
		// A fresh TaskSet per task mirrors remote execution: every job
		// rebuilds its world from the spec alone.
		ts, err := Tasks(id, opts)
		if err != nil {
			e.t.Fatal(err)
		}
		seed := opts.Seed
		if seed == 0 {
			seed = 1
		}
		rec, err := ts.RunTask(ctx, i, pool.TaskRNG(seed, i))
		if err != nil {
			return nil, err
		}
		recs[i] = rec
	}
	return recs, nil
}

// TestExecutorPathMatchesLocal pins the seam the fleet plugs into: every
// figure renders byte-identical CSV whether its records come from the
// in-process pool or from an Executor that rebuilds the TaskSet per task
// (so a figure's shared prelude is recomputed by every task, as on a
// fleet, instead of memoised once).
func TestExecutorPathMatchesLocal(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			opts := RunOptions{Scale: quickScale, Seed: 1}
			local, err := Run(context.Background(), id, opts)
			if err != nil {
				t.Fatal(err)
			}
			exec := &replayExecutor{t: t}
			remoteOpts := opts
			remoteOpts.Exec = exec
			remote, err := Run(context.Background(), id, remoteOpts)
			if err != nil {
				t.Fatal(err)
			}
			if exec.calls != 1 {
				t.Fatalf("executor invoked %d times, want 1", exec.calls)
			}
			if got, want := remote.String(), local.String(); got != want {
				t.Errorf("executor CSV differs from local:\n--- local ---\n%s--- executor ---\n%s", want, got)
			}
		})
	}
}

// TestEveryFigureDecomposes: every registered experiment has a TaskSet
// with at least one task, and Tasks refuses unknown IDs.
func TestEveryFigureDecomposes(t *testing.T) {
	for _, id := range IDs() {
		ts, err := Tasks(id, RunOptions{Scale: 0.3, Seed: 1})
		if err != nil {
			t.Errorf("Tasks(%q): %v", id, err)
			continue
		}
		if n := ts.NumTasks(); n < 1 {
			t.Errorf("figure %q decomposes into %d tasks", id, n)
		}
	}
	if _, err := Tasks("nope", RunOptions{}); err == nil {
		t.Error("Tasks accepted an unknown figure")
	}
}

// silenceFigures are the figures whose tasks run CoS trials through the
// cos-silence embedding; every other figure only measures the channel.
var silenceFigures = map[string]bool{
	"fig9": true, "fig10b": true, "fig10c": true, "fig10d": true, "accuracy": true,
	"ablation-evd": true, "ablation-placement": true, "ablation-threshold": true, "ablation-quantization": true,
}

// TestTasksRefuseOtherEmbeddings: under the padding embedding exactly the
// silence-measuring figures are refused, with ErrEmbeddingUnsupported, and
// scenarios that keep cos-silence (whatever their channel or interferer)
// are accepted by every figure.
func TestTasksRefuseOtherEmbeddings(t *testing.T) {
	for _, id := range IDs() {
		_, err := Tasks(id, RunOptions{Scenario: "ofdm-padding"})
		if got := errors.Is(err, ErrEmbeddingUnsupported); got != silenceFigures[id] {
			t.Errorf("Tasks(%q, ofdm-padding) = %v; want refusal %v", id, err, silenceFigures[id])
		}
		for _, ref := range []string{"pulse", "hybrid-bscpec", "mobile"} {
			if _, err := Tasks(id, RunOptions{Scenario: ref}); err != nil {
				t.Errorf("Tasks(%q, %s) = %v; want accepted", id, ref, err)
			}
		}
	}
	if _, err := Run(context.Background(), "fig9", RunOptions{Scale: 0.05, Scenario: "ofdm-padding"}); !errors.Is(err, ErrEmbeddingUnsupported) {
		t.Errorf("Run(fig9, ofdm-padding) = %v; want ErrEmbeddingUnsupported", err)
	}
}

// TestExecutorShortCount: an executor returning the wrong record count is
// an error, not a silent truncation.
func TestExecutorShortCount(t *testing.T) {
	opts := RunOptions{Scale: 0.3, Workers: 1, Seed: 1,
		Exec: executorFunc(func(ctx context.Context, id string, o RunOptions, n int) ([]json.RawMessage, error) {
			return make([]json.RawMessage, n-1), nil
		})}
	if _, err := Run(context.Background(), "fig2", opts); err == nil {
		t.Fatal("a short record set assembled without error")
	}
}

type executorFunc func(context.Context, string, RunOptions, int) ([]json.RawMessage, error)

func (f executorFunc) ExecTasks(ctx context.Context, id string, opts RunOptions, n int) ([]json.RawMessage, error) {
	return f(ctx, id, opts, n)
}
