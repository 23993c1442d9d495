// Package benchkit is the one harness behind the repository's in-repo
// performance gates: the overhead budgets (trace probes, the link
// observer, the serve journal, per-job trace capture), the result cache's
// warm/cold bar, fleet byte-identity and scaling, and the scenario
// head-to-head floors. Each gate is a test that measures, records named
// rows and pass/fail gates in one Report, and hands it to Finish, which
// writes <dir>/BENCH_<name>.json when -benchkit.dir is set and fails the
// test for every gate that did not hold.
//
// Every report has the same shape:
//
//	{"env": {...}, "methodology": "...",
//	 "rows":  [{"name", "unit", "value"}],
//	 "gates": [{"name", "statistic", "bound", "value", "pass"}]}
//
// `make bench` regenerates every report. The package imports only the
// standard library, so any test package can use it.
package benchkit

import (
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

var dir = flag.String("benchkit.dir", "", "run the benchkit gates and write each report to `dir`/BENCH_<name>.json")

// Dir returns the -benchkit.dir value, "" when no reports were asked for.
func Dir() string { return *dir }

// Require skips t unless -benchkit.dir is set: the gates take seconds to
// minutes and measure wall time, so `go test ./...` leaves them out.
func Require(t testing.TB) {
	t.Helper()
	if *dir == "" {
		t.Skip("set -benchkit.dir to run this gate and write its report")
	}
}

// Env is the environment header every report carries, so a number is
// never read without the machine and build that produced it.
type Env struct {
	// Commit is `git rev-parse --short HEAD`, "" outside a git checkout.
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Date is the UTC time the report was written, RFC 3339.
	Date string `json:"date"`
}

// currentEnv reads the environment header.
func currentEnv() Env {
	commit := ""
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return Env{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
}

// Row is one measured value.
type Row struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// Gate is one acceptance check: Statistic says how Value was formed and
// how it is compared against Bound. A yes/no check has bound 1 and value
// 1 when it holds.
type Gate struct {
	Name      string  `json:"name"`
	Statistic string  `json:"statistic"`
	Bound     float64 `json:"bound"`
	Value     float64 `json:"value"`
	Pass      bool    `json:"pass"`
}

// Report is one gate test's result file.
type Report struct {
	Env         Env    `json:"env"`
	Methodology string `json:"methodology"`
	Rows        []Row  `json:"rows"`
	Gates       []Gate `json:"gates"`
}

// Row records a measured value.
func (r *Report) Row(name, unit string, value float64) {
	r.Rows = append(r.Rows, Row{Name: name, Unit: unit, Value: value})
}

// AtMost records a gate that passes when value <= bound.
func (r *Report) AtMost(name, statistic string, bound, value float64) {
	r.Gates = append(r.Gates, Gate{name, statistic, bound, value, value <= bound})
}

// AtLeast records a gate that passes when value >= bound.
func (r *Report) AtLeast(name, statistic string, bound, value float64) {
	r.Gates = append(r.Gates, Gate{name, statistic, bound, value, value >= bound})
}

// Check records a yes/no gate.
func (r *Report) Check(name, statistic string, ok bool) {
	value := 0.0
	if ok {
		value = 1
	}
	r.Gates = append(r.Gates, Gate{name, statistic, 1, value, ok})
}

// Finish writes the report, stamped with the environment header, to
// <dir>/BENCH_<name>.json when -benchkit.dir is set, and fails t once for
// every gate that did not pass. The report is written before the gates
// fail the test, so a failing run stays on record.
func (r *Report) Finish(t testing.TB, name string) {
	t.Helper()
	if *dir != "" {
		r.Env = currentEnv()
		buf, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(*dir, "BENCH_"+name+".json")
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
	}
	for _, g := range r.Gates {
		if !g.Pass {
			t.Errorf("gate %s failed: %s, value %.4g, bound %.4g", g.Name, g.Statistic, g.Value, g.Bound)
		}
	}
}

// Stats summarises one run's samples.
type Stats struct {
	Min, Median float64
	// Samples are in round order.
	Samples []float64
}

// Interleave calls every run n times, one call each per round, and
// rotates which run goes first: round i calls runs[i%len], runs[i%len+1],
// and so on, wrapping. A run that always went first would pay for the
// cold caches and CPU frequency ramps on its own; rotated, every run pays
// them equally often. It returns each run's Stats in argument order.
func Interleave(n int, runs ...func() float64) []Stats {
	stats := make([]Stats, len(runs))
	for round := 0; round < n; round++ {
		for k := range runs {
			i := (round + k) % len(runs)
			stats[i].Samples = append(stats[i].Samples, runs[i]())
		}
	}
	for i := range stats {
		stats[i].Min = Quantile(stats[i].Samples, 0)
		stats[i].Median = Quantile(stats[i].Samples, 0.5)
	}
	return stats
}

// Quantile returns the q-quantile of xs: the element at index int(q*len)
// of the sorted samples, clamped to the last, so q=0 is the minimum, q=1
// the maximum and q=0.5 the upper median. It returns 0 for no samples and
// leaves xs unsorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// Saturate keeps a server's queues full for window: it submits jobs with
// seeds 1, 2, ... and, when submit refuses one (returns nil), sleeps
// 200µs before trying the next seed. It then waits for every accepted
// job and returns their count and the wall time from the first submit to
// the last completion. submit returns the accepted job's done channel.
func Saturate(window time.Duration, submit func(seed int64) <-chan struct{}) (int, time.Duration) {
	start := time.Now()
	deadline := start.Add(window)
	var done []<-chan struct{}
	for seed := int64(1); time.Now().Before(deadline); seed++ {
		if d := submit(seed); d != nil {
			done = append(done, d)
		} else {
			time.Sleep(200 * time.Microsecond)
		}
	}
	for _, d := range done {
		<-d
	}
	return len(done), time.Since(start)
}

// Sends runs the link gates' shared workload on one link: an untimed
// warm-up packet, then ready (where a benchmark resets its timer or a gate
// starts its clock), then n packets. Every packet is 1024 zero bytes
// carrying up to 24 zero control bits, trimmed to whole 4-bit intervals
// when the link's adaptive budget dips, which it legitimately does when
// the SNR report visits a 3/4-coded band. It takes the link's
// MaxControlBits and Send as method values, so this package stays free of
// the code it measures:
//
//	benchkit.Sends(link.MaxControlBits, link.Send, b.N, b.ResetTimer)
func Sends[E any](maxBits func(dataLen int) (int, error), send func(data, ctrl []byte) (E, error), n int, ready func()) error {
	data := make([]byte, 1024)
	ctrl := make([]byte, 24)
	if _, err := send(data, nil); err != nil {
		return err
	}
	ready()
	for i := 0; i < n; i++ {
		budget, err := maxBits(len(data))
		if err != nil {
			return err
		}
		bits := len(ctrl)
		if bits > budget {
			bits = budget / 4 * 4
		}
		if _, err := send(data, ctrl[:bits]); err != nil {
			return err
		}
	}
	return nil
}
