package experiments

import (
	"context"
	"encoding/json"
	"math/rand"

	"cos/internal/channel"
	icos "cos/internal/cos"
	"cos/internal/phy"
	"cos/internal/scenario"
)

// Fig9Config parameterizes the free-control-message capacity measurement.
type Fig9Config struct {
	// PacketsPerTrial is the PRR sample size per candidate silence budget
	// (default 150: PRR >= 0.993 tolerates one loss).
	PacketsPerTrial int
	// TargetPRR is the required packet reception rate (default 0.993).
	TargetPRR float64
	// PointsPerMode is the number of measured-SNR points inside each
	// mode's operating band (default 3).
	PointsPerMode int
	// PSDULen is the packet size in bytes (default 1024).
	PSDULen int
	// Scale shrinks PacketsPerTrial (PRR resolution degrades gracefully).
	Scale float64
	// Scenario is an optional scenario reference ("" = default world).
	Scenario string
}

func (c *Fig9Config) setDefaults() {
	if c.PacketsPerTrial == 0 {
		c.PacketsPerTrial = 150
	}
	if c.TargetPRR == 0 {
		c.TargetPRR = 0.993
	}
	if c.PointsPerMode == 0 {
		c.PointsPerMode = 3
	}
	if c.PSDULen == 0 {
		c.PSDULen = 1024
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
}

// maxSilenceBudget caps the binary search; beyond this the erasure load is
// far past any code's correction capability for 1 KB packets.
const maxSilenceBudget = 160

// fig9Tasks reproduces Fig. 9: Rm, the maximum number of silence symbols
// per second sustainable at packet reception rate >= TargetPRR, as a
// function of measured SNR, for the six modes the paper evaluates. Within a
// mode's band Rm rises with SNR (more spare code redundancy); at each rate
// switch the budget resets; lower code rates and lower-order modulations
// support higher Rm.
//
// Every (mode, SNR point) pair is an independent point-task — each runs its
// own calibration and PRR binary search on a private RNG — so the sweep
// parallelizes across the full mode grid.
type fig9Tasks struct {
	cfg Fig9Config
}

func newFig9Tasks(cfg Fig9Config) fig9Tasks {
	cfg.setDefaults()
	return fig9Tasks{cfg: cfg}
}

// fig9Record is one (mode, SNR point) task's Rm in silence symbols per
// second (finite: a budget over a fixed packet duration).
type fig9Record struct {
	Rm float64 `json:"rm"`
}

func (f fig9Tasks) NumTasks() int { return len(phy.EvaluatedModes()) * f.cfg.PointsPerMode }

// target is point p's measured SNR inside mode mi's operating band: the
// mode's threshold up to the next mode's (or +3 dB for the fastest).
func (f fig9Tasks) target(modes []phy.Mode, mi, p int) float64 {
	lo := modes[mi].MinSNRdB + 0.3
	hi := modes[mi].MinSNRdB + 3
	if mi+1 < len(modes) {
		hi = modes[mi+1].MinSNRdB - 0.3
	}
	if f.cfg.PointsPerMode > 1 {
		return lo + (hi-lo)*float64(p)/float64(f.cfg.PointsPerMode-1)
	}
	return lo
}

func (f fig9Tasks) RunTask(ctx context.Context, i int, rng *rand.Rand) (json.RawMessage, error) {
	// Per task: a channel model owns tap scratch, so point-tasks must not
	// share one (the same variant is the same deterministic draw).
	ch, err := trialChannel(f.cfg.Scenario, channel.PositionB, false, 3)
	if err != nil {
		return nil, err
	}
	modes := phy.EvaluatedModes()
	mi, p := i/f.cfg.PointsPerMode, i%f.cfg.PointsPerMode
	scr := &trialScratch{}
	mode := modes[mi]
	actual, err := calibrateActualSNR(scr, ch, 0, mode, f.target(modes, mi, p), rng)
	if err != nil {
		return nil, err
	}
	budget, err := maxBudgetAtPRR(ctx, scr, ch, actual, mode, f.cfg, scaled(f.cfg.PacketsPerTrial, f.cfg.Scale), rng)
	if err != nil {
		return nil, err
	}
	return json.Marshal(fig9Record{Rm: icos.SilencesPerSecond(budget, mode, f.cfg.PSDULen)})
}

func (f fig9Tasks) Assemble(recs []json.RawMessage) (*Result, error) {
	pts, err := decodeRecords[fig9Record](recs)
	if err != nil {
		return nil, err
	}
	modes := phy.EvaluatedModes()
	res := &Result{
		ID:     "fig9",
		Title:  "Maximum silence symbols per second (Rm) vs measured SNR",
		XLabel: "measured SNR (dB)",
		YLabel: "Rm (silence symbols/s)",
	}
	for mi, mode := range modes {
		s := Series{Name: modeLabel(mode)}
		for p := 0; p < f.cfg.PointsPerMode; p++ {
			s.X = append(s.X, f.target(modes, mi, p))
			s.Y = append(s.Y, pts[mi*f.cfg.PointsPerMode+p].Rm)
		}
		res.Add(s)
	}
	res.Note("PRR target %.3f over %d packets per trial; silence placement on weak detectable subcarriers; detected-mask erasure decoding", f.cfg.TargetPRR, scaled(f.cfg.PacketsPerTrial, f.cfg.Scale))
	return res, nil
}

// maxBudgetAtPRR binary-searches the largest silence budget whose PRR meets
// the target.
func maxBudgetAtPRR(ctx context.Context, scr *trialScratch, ch scenario.ChannelModel, actualSNR float64, mode phy.Mode, cfg Fig9Config, packets int, rng *rand.Rand) (int, error) {
	nSym := mode.SymbolsForPSDU(cfg.PSDULen)
	prrOK := func(budget int) (bool, error) {
		if budget == 0 {
			return true, nil
		}
		ctrlSCs, err := selectCtrlSCsForBudget(scr, ch, 0, actualSNR, mode, nSym, budget, icos.DefaultBitsPerInterval, rng)
		if err != nil {
			return false, nil // no usable control subcarriers: budget unsustainable
		}
		allowed := int(float64(packets) * (1 - cfg.TargetPRR))
		failures := 0
		trial := cosTrialConfig{mode: mode, psduLen: cfg.PSDULen, silences: budget, ctrlSCs: ctrlSCs}
		for p := 0; p < packets; p++ {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			r, err := runCoSTrial(scr, ch, 0, actualSNR, trial, rng)
			if err != nil {
				// Oversized messages for the capacity mean the budget does
				// not fit at all.
				return false, nil
			}
			if !r.dataOK {
				failures++
				if failures > allowed {
					return false, nil
				}
			}
		}
		return true, nil
	}

	lo, hi := 0, maxSilenceBudget // lo always feasible, hi presumed infeasible
	for lo < hi-1 {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		mid := (lo + hi) / 2
		ok, err := prrOK(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
