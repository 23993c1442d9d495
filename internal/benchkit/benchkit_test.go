package benchkit

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestInterleaveRotatesFirstRun(t *testing.T) {
	var calls []string
	run := func(name string) func() float64 {
		return func() float64 { calls = append(calls, name); return 0 }
	}
	Interleave(4, run("a"), run("b"), run("c"))
	want := []string{"a", "b", "c", "b", "c", "a", "c", "a", "b", "a", "b", "c"}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("call order %v, want %v", calls, want)
	}
}

func TestInterleaveStatsMatchSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 9; n++ {
		var a, b []float64
		draw := func(dst *[]float64) func() float64 {
			return func() float64 { v := rng.Float64(); *dst = append(*dst, v); return v }
		}
		stats := Interleave(n, draw(&a), draw(&b))
		for i, want := range [][]float64{a, b} {
			s := stats[i]
			if !reflect.DeepEqual(s.Samples, want) {
				t.Fatalf("n=%d run %d: samples %v, want %v", n, i, s.Samples, want)
			}
			sorted := append([]float64(nil), want...)
			sort.Float64s(sorted)
			if s.Min != sorted[0] || s.Median != sorted[len(sorted)/2] {
				t.Fatalf("n=%d run %d: min %v median %v, want %v %v",
					n, i, s.Min, s.Median, sorted[0], sorted[len(sorted)/2])
			}
		}
	}
}

// TestQuantileMatchesJobtraceRule pins Quantile to the rule the job-trace
// gate has always used: sorted[int(q*len)], clamped to the last element.
func TestQuantileMatchesJobtraceRule(t *testing.T) {
	oracle := func(ms []float64, q float64) float64 {
		s := append([]float64(nil), ms...)
		sort.Float64s(s)
		i := int(q * float64(len(s)))
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 9; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(100))
		}
		orig := append([]float64(nil), xs...)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.99, 1} {
			if got, want := Quantile(xs, q), oracle(xs, q); got != want {
				t.Errorf("len %d q=%v: Quantile %v, want %v", n, q, got, want)
			}
		}
		if !reflect.DeepEqual(xs, orig) {
			t.Fatalf("Quantile reordered its input")
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("Quantile(nil) = %v, want 0", got)
	}
}

func TestEnvPopulated(t *testing.T) {
	env := currentEnv()
	if !strings.HasPrefix(env.GoVersion, "go") || env.NumCPU < 1 || env.GOMAXPROCS < 1 {
		t.Fatalf("env %+v", env)
	}
	if _, err := time.Parse(time.RFC3339, env.Date); err != nil {
		t.Fatalf("date %q: %v", env.Date, err)
	}
	if strings.ContainsAny(env.Commit, " \n") {
		t.Fatalf("commit %q", env.Commit)
	}
}

// failTB records Errorf calls instead of failing the test.
type failTB struct {
	testing.TB
	errs []string
}

func (f *failTB) Errorf(format string, args ...any) {
	f.errs = append(f.errs, fmt.Sprintf(format, args...))
}

func TestFinishWritesSchemaAndFailsBrokenGates(t *testing.T) {
	old := *dir
	*dir = t.TempDir()
	defer func() { *dir = old }()

	var r Report
	r.Methodology = "m"
	r.Row("x", "s", 1.5)
	r.AtMost("under", "x <= bound", 2, 1.5)
	r.AtLeast("short", "x >= bound", 10, 3)
	r.Check("holds", "identical", true)
	tb := &failTB{TB: t}
	r.Finish(tb, "unit")
	if len(tb.errs) != 1 || !strings.Contains(tb.errs[0], "short") {
		t.Fatalf("errors %q, want one for gate short", tb.errs)
	}

	buf, err := os.ReadFile(filepath.Join(*dir, "BENCH_unit.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"env", "gates", "methodology", "rows"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("report keys %v, want %v", keys, want)
	}
	var back Report
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	wantGates := []Gate{
		{"under", "x <= bound", 2, 1.5, true},
		{"short", "x >= bound", 10, 3, false},
		{"holds", "identical", 1, 1, true},
	}
	if !reflect.DeepEqual(back.Gates, wantGates) || !reflect.DeepEqual(back.Rows, []Row{{"x", "s", 1.5}}) {
		t.Fatalf("round trip %+v", back)
	}
}

func TestSaturateCountsAcceptedJobs(t *testing.T) {
	var seeds []int64
	done := make(chan struct{})
	close(done)
	n, elapsed := Saturate(5*time.Millisecond, func(seed int64) <-chan struct{} {
		seeds = append(seeds, seed)
		if seed%2 == 0 {
			return nil // refused
		}
		return done
	})
	if elapsed < 5*time.Millisecond || len(seeds) == 0 || n != (len(seeds)+1)/2 {
		t.Fatalf("accepted %d of %d submissions in %v", n, len(seeds), elapsed)
	}
	for i, s := range seeds {
		if s != int64(i+1) {
			t.Fatalf("seed %d at submission %d, want consecutive seeds", s, i)
		}
	}
}

func TestSendsFollowsAdaptiveBudget(t *testing.T) {
	budgets := []int{48, 10, 3}
	var sent []int
	ready := 0
	err := Sends(func(dataLen int) (int, error) {
		if dataLen != 1024 {
			t.Fatalf("budget asked for %d bytes", dataLen)
		}
		return budgets[len(sent)-1], nil
	}, func(data, ctrl []byte) (struct{}, error) {
		sent = append(sent, len(ctrl))
		return struct{}{}, nil
	}, 3, func() { ready = len(sent) })
	if err != nil {
		t.Fatal(err)
	}
	// warm-up without control, then 24 bits, trimmed to 8, trimmed to 0.
	if want := []int{0, 24, 8, 0}; !reflect.DeepEqual(sent, want) || ready != 1 {
		t.Fatalf("sent %v (ready after %d), want %v (ready after 1)", sent, ready, want)
	}

	boom := errors.New("boom")
	err = Sends(func(int) (int, error) { return 0, boom },
		func([]byte, []byte) (int, error) { return 0, nil }, 1, func() {})
	if !errors.Is(err, boom) {
		t.Fatalf("err %v, want the budget error", err)
	}
}
