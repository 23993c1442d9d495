// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed wall-clock budget from a seed, checks every
// output it measures, and prints one JSON result object as the last line
// of standard output:
//
//	perfbench --workload link-bulk --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (see
// endToEnd); with --trace 1 it carries the per-layer metrics (see
// perLayer), timed from outside around the public entry points of each
// layer. Run it through run.sh, which builds this binary and the cos-serve
// daemon from the checkout it sits in.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to its runner. A runner measures for
// the given duration and fills a report.
var workloads = map[string]func(ctx context.Context, env *runEnv) (*report, error){
	"link-bulk":     runLinkBulk,
	"figures-fleet": runFiguresFleet,
}

// runEnv is what a workload runner gets from the command line.
type runEnv struct {
	seed     int64
	duration time.Duration
	traced   bool
	// serveBin is the cos-serve binary the serve and fleet workloads
	// start; workDir is a temporary directory inside the checkout that the
	// run removes when it ends.
	serveBin string
	workDir  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: link-bulk or figures-fleet")
		seed     = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds  = fs.Float64("seconds", 10, "measured wall-clock seconds")
		trace    = fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		serveBin = fs.String("serve-bin", filepath.Join(".bench_build", "cos-serve"), "cos-serve binary the fleet workload starts")
		workDir  = fs.String("work-dir", filepath.Join(".bench_build", "work"), "parent of the per-run temporary directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload link-bulk|figures-fleet, --seconds > 0, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	env := &runEnv{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		serveBin: *serveBin,
		workDir:  dir,
	}
	header := environment(*workload, *seed, *seconds, *trace)
	printJSON(stdout, map[string]any{"env": header})

	rep, err := runner(ctx, env)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	printJSON(stdout, map[string]any{"detail": rep.detail})
	res, err := rep.result(env.traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	printJSON(stdout, res)
	return 0
}

func printJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, strings and numbers reach here
	}
	fmt.Fprintf(w, "%s\n", b)
}

// envHeader records where and how a result was measured.
type envHeader struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Date       string  `json:"date"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
}

func environment(workload string, seed int64, seconds float64, trace int) envHeader {
	return envHeader{
		Commit:     commit("."),
		Go:         runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
	}
}

// commit reads the checked-out commit from root/.git without running git
// (which would search parent directories); checkouts without a .git
// directory report "unknown".
func commit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
