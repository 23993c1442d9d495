package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"cos/internal/scenario"
)

// RunOptions configures one experiment run. The zero value selects the
// publication-quality scale, one worker per CPU, and the canonical seed.
type RunOptions struct {
	// Scale shrinks sample sizes (1 = publication quality; smaller values
	// shrink packet counts and sweep resolutions proportionally). Zero or
	// negative selects 1.
	Scale float64
	// Workers bounds the goroutines the point-task pool uses; zero or
	// negative selects runtime.GOMAXPROCS(0). Results are bit-identical
	// for every worker count (per-task RNGs are derived as seed^taskIndex
	// and reassembled in index order — see internal/pool).
	Workers int
	// Seed drives all randomness; zero selects 1.
	Seed int64
	// Scenario is an optional scenario reference ("" = the default world).
	// It is threaded into every figure configuration verbatim; figures
	// that measure silences refuse one whose embedding is not cos-silence
	// (see Tasks).
	Scenario string
	// Exec, when non-nil, runs the figure's point-tasks instead of the
	// in-process pool — the fleet coordinator plugs in here to fan tasks
	// out across cos-serve backends. Results are byte-identical either
	// way. Not comparable/serializable: excluded from any notion of run
	// identity.
	Exec Executor
}

// ErrEmbeddingUnsupported: a figure that measures silences (its tasks run
// CoS trials through the cos-silence embedding) was asked to run under a
// scenario with another embedding, where its detection, placement and
// threshold measurements have no meaning.
var ErrEmbeddingUnsupported = errors.New("experiments: figure needs the cos-silence embedding")

// figure is one registry entry: its TaskSet constructor, and whether its
// tasks run CoS trials and so need the scenario's embedding to be
// cos-silence.
type figure struct {
	silence bool
	tasks   func(RunOptions) TaskSet
}

// registry maps every experiment ID to its figure. The same opts always
// yield the same decomposition (task count and per-task behavior), on
// every host.
var registry = map[string]figure{
	"fig2": {tasks: func(o RunOptions) TaskSet {
		cfg := Fig2Config{Scenario: o.Scenario}
		if o.Scale < 1 {
			cfg.Variants = 2
			cfg.Step = 2
		}
		return newFig2Tasks(cfg)
	}},
	"fig3": {tasks: func(o RunOptions) TaskSet {
		return newFig3Tasks(Fig3Config{Scale: o.Scale, Scenario: o.Scenario})
	}},
	"fig5": {tasks: func(o RunOptions) TaskSet {
		return newFig5Tasks(Fig5Config{Scale: o.Scale, Scenario: o.Scenario})
	}},
	"fig6": {tasks: func(o RunOptions) TaskSet {
		return newFig6Tasks(Fig6Config{Scale: o.Scale, Scenario: o.Scenario})
	}},
	"fig7": {tasks: func(o RunOptions) TaskSet {
		return newFig7Tasks(Fig7Config{Scale: o.Scale, Scenario: o.Scenario})
	}},
	"fig9": {silence: true, tasks: func(o RunOptions) TaskSet {
		cfg := Fig9Config{Scale: o.Scale, Scenario: o.Scenario}
		if o.Scale < 1 {
			cfg.PointsPerMode = 2
		}
		return newFig9Tasks(cfg)
	}},
	"fig10a": {tasks: func(o RunOptions) TaskSet {
		return newFig10aTasks(Fig10aConfig{Scenario: o.Scenario})
	}},
	"fig10b": {silence: true, tasks: func(o RunOptions) TaskSet {
		cfg := Fig10bConfig{Scale: o.Scale, Seed: o.Seed, Scenario: o.Scenario}
		if o.Scale < 1 {
			cfg.Points = 13
		}
		return newFig10bTasks(cfg)
	}},
	"fig10c": {silence: true, tasks: func(o RunOptions) TaskSet {
		return newFig10cTasks(Fig10cConfig{Scale: o.Scale, Seed: o.Seed, Scenario: o.Scenario})
	}},
	"fig10d": {silence: true, tasks: func(o RunOptions) TaskSet {
		cfg := Fig10cConfig{Scale: o.Scale, Seed: o.Seed, Scenario: o.Scenario}
		if o.Scale < 1 {
			cfg.SNRs = []float64{4, 8, 12, 16, 20}
		}
		return newFig10dTasks(cfg)
	}},
	"ablation-evd": {silence: true, tasks: func(o RunOptions) TaskSet {
		return newAblationEVDTasks(ablationConfigFrom(o))
	}},
	"ablation-placement": {silence: true, tasks: func(o RunOptions) TaskSet {
		return newAblationPlacementTasks(ablationConfigFrom(o))
	}},
	"ablation-threshold": {silence: true, tasks: func(o RunOptions) TaskSet {
		return newAblationThresholdTasks(ablationConfigFrom(o))
	}},
	"ablation-quantization": {silence: true, tasks: func(o RunOptions) TaskSet {
		return newAblationQuantizationTasks(ablationConfigFrom(o))
	}},
	"accuracy": {silence: true, tasks: func(o RunOptions) TaskSet {
		return newControlAccuracyTasks(ablationConfigFrom(o))
	}},
}

// IDs lists all experiment identifiers in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Tasks returns figure id's point-task decomposition under opts. It fails
// when id names no experiment, when opts.Scenario does not resolve, and,
// wrapping ErrEmbeddingUnsupported, when a silence-measuring figure gets a
// scenario whose embedding is not cos-silence. Channel-only figures accept
// any scenario.
func Tasks(id string, opts RunOptions) (TaskSet, error) {
	f, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	if f.silence {
		sc, err := scenario.FromRef(opts.Scenario)
		if err != nil {
			return nil, err
		}
		if sc.Embedding != "" && sc.Embedding != scenario.DefaultEmbedding {
			return nil, fmt.Errorf("%w: %s under scenario %q embeds with %s", ErrEmbeddingUnsupported, id, opts.Scenario, sc.Embedding)
		}
	}
	return f.tasks(opts), nil
}

// Run executes the experiment with the given ID under opts: its TaskSet
// runs on the in-process pool, or through opts.Exec when set. It is the
// one entry point cmd/cos-figures, cos-serve and the benchmarks share.
func Run(ctx context.Context, id string, opts RunOptions) (*Result, error) {
	ts, err := Tasks(id, opts)
	if err != nil {
		return nil, err
	}
	return runTasks(ctx, id, opts, ts)
}
