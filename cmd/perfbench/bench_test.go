package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if q, name := tailQuantile(999); q != 0.90 || name != "p90" {
		t.Errorf("tailQuantile(999) = %v %s, want the p90", q, name)
	}
	if q, name := tailQuantile(1000); q != 0.99 || name != "p99" {
		t.Errorf("tailQuantile(1000) = %v %s, want the p99", q, name)
	}
}

// TestReplayMatchesDecode drives the traced link long enough to replay
// several frames and requires every replayed layer to reproduce the
// pipeline's output, including the PSDU FrontEnd.DecodeInto decodes.
func TestReplayMatchesDecode(t *testing.T) {
	tr, err := linkTraced(context.Background(), 7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if tr.replay.replayed < 1 {
		t.Fatal("no frame replayed")
	}
	if tr.replay.mismatches != 0 {
		t.Fatalf("%d of %d replayed frames differ from the pipeline", tr.replay.mismatches, tr.replay.replayed)
	}
	out := map[string]float64{}
	tr.layers(out)
	for _, name := range phyLayers {
		if out[name] <= 0 {
			t.Errorf("layer %s measured %v, want > 0", name, out[name])
		}
	}
	if out["coding.viterbi_steps_per_pkt"] <= 0 {
		t.Errorf("no Viterbi steps counted")
	}
}

// TestNodeTranscriptMatchesLink pins the traced path to the untraced one:
// the hand-driven nodes must produce Link.Send's exchanges, and the
// transcript must be a function of the seed alone.
func TestNodeTranscriptMatchesLink(t *testing.T) {
	ctx := context.Background()
	a, _, err := linkUntraced(ctx, 3, 600*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := linkUntraced(ctx, 3, 600*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := linkTraced(ctx, 3, 600*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	n := min(len(a.hashes), len(b.hashes), len(tr.tally.hashes))
	if n < 2 {
		t.Fatalf("only %d packets to compare", n)
	}
	if !slices.Equal(a.hashes[:n], b.hashes[:n]) {
		t.Fatal("two Link runs of one seed differ")
	}
	if !slices.Equal(a.hashes[:n], tr.tally.hashes[:n]) {
		t.Fatal("standalone nodes differ from Link.Send")
	}
	c, _, err := linkUntraced(ctx, 4, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if c.hashes[0] == a.hashes[0] {
		t.Fatal("seeds 3 and 4 produced the same first exchange")
	}
}

// serveBinary builds cos-serve once for the workload smoke tests.
func serveBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cos-serve")
	cmd := exec.Command("go", "build", "-o", bin, "cos/cmd/cos-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building cos-serve: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloadsSmoke runs every workload for a moment, untraced and
// traced, and requires a correct result carrying its whole catalog.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts cos-serve daemons")
	}
	bin := serveBinary(t)
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			env := &runEnv{seed: 5, duration: 400 * time.Millisecond, traced: traced, serveBin: bin, workDir: t.TempDir()}
			rep, err := workloads[name](context.Background(), env)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			res, err := rep.result(traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d detail=%v",
					name, traced, res.Correct, res.Attempted, res.Failed, rep.detail)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if len(res.Metrics) != want {
				t.Fatalf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), want)
			}
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json, the metric
// catalog, the workload table and mapping.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	readJSON(t, filepath.Join("..", "..", "BENCHMARK.json"), &bench)
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalog %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), catalog %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if (m.Bound != nil) != bounded || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s: %s has bound %v, better %q", kind, m.Name, m.Bound, m.Better)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd, true)
	check("per_layer", bench.PerLayer, perLayer, false)
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the runner table %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}

	var mapping struct {
		PerLayer    map[string]json.RawMessage `json:"per_layer"`
		LegacyGates []struct{ File string }    `json:"legacy_gates"`
	}
	readJSON(t, "mapping.json", &mapping)
	for _, m := range perLayer {
		if _, ok := mapping.PerLayer[m.name]; !ok {
			t.Errorf("mapping.json does not say what %s should move", m.name)
		}
	}
	mapped := map[string]bool{}
	for _, g := range mapping.LegacyGates {
		mapped[g.File] = true
	}
	legacy, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range legacy {
		if !mapped[filepath.Base(f)] {
			t.Errorf("mapping.json maps no gate of %s", filepath.Base(f))
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
