package fleet

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cos/internal/benchkit"
	"cos/internal/obs"
	"cos/internal/serve"
)

// TestWriteBenchFleetReport dispatches D distinct link specs through
// coordinators over 1, 2, and 4 in-process backends and gates two things:
// every topology's assembly is byte-identical to the single-backend run,
// and on a multi-core host the 2-backend fleet clears 1.7x the
// single-backend throughput.
//
// The backends are Loopbacks — real serve.Server instances (admission,
// shard queue, result streaming), so what scales is genuinely concurrent
// job execution across independent servers. On a single-CPU host
// (GOMAXPROCS=1) all backends time-share one core, near-1.0x ratios are
// the honest expectation, and the scaling gate is left out.
func TestWriteBenchFleetReport(t *testing.T) {
	benchkit.Require(t)

	const jobs = 32
	specs := make([]serve.Spec, jobs)
	for i := range specs {
		specs[i] = serve.Spec{Kind: serve.KindLink, Seed: int64(i + 1), PayloadBytes: 256, Packets: 50, ControlBits: 32}
	}

	r := benchkit.Report{Methodology: "The same 32 distinct 50-packet link specs dispatched " +
		"once each through fleet coordinators over 1, 2 and 4 in-process cos-serve backends " +
		"(one shard each), timed end to end. On a single-CPU host the backends time-share " +
		"one core, so the scaling gate applies only when GOMAXPROCS >= 2."}
	var jps []float64
	var reference [][]byte
	identical := true
	for _, nBackends := range []int{1, 2, 4} {
		backends := make([]Backend, nBackends)
		for i := range backends {
			srv := serve.New(serve.Config{Shards: 1, QueueDepth: jobs, Metrics: obs.NewRegistry()})
			defer srv.Drain(60 * time.Second)
			backends[i] = NewLoopback(fmt.Sprintf("bench%d-%d", nBackends, i), srv)
		}
		c := New(Config{Backends: backends})
		start := time.Now()
		bodies, err := c.Run(context.Background(), specs)
		elapsed := time.Since(start)
		c.Close()
		if err != nil {
			t.Fatalf("%d backends: %v", nBackends, err)
		}
		if reference == nil {
			reference = bodies
		} else {
			for i := range bodies {
				if !bytes.Equal(bodies[i], reference[i]) {
					identical = false
					t.Errorf("%d backends: task %d differs from the single-backend run", nBackends, i)
				}
			}
		}
		jps = append(jps, jobs/elapsed.Seconds())
		r.Row(fmt.Sprintf("jobs_per_s_%d_backends", nBackends), "1/s", jps[len(jps)-1])
	}

	r.Row("scaling_4_backends", "ratio", jps[2]/jps[0])
	r.Check("output_identical", "every fleet size assembles the single-backend bytes", identical)
	if runtime.GOMAXPROCS(0) >= 2 {
		r.AtLeast("scaling_2_backends", "jobs/s at 2 backends / jobs/s at 1", 1.7, jps[1]/jps[0])
	} else {
		r.Row("scaling_2_backends", "ratio", jps[1]/jps[0])
	}
	r.Finish(t, "fleet")
}
