package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"cos/internal/channel"
	"cos/internal/dsp"
	"cos/internal/modulation"
	"cos/internal/ofdm"
	"cos/internal/phy"
	"cos/internal/scenario"
)

// Fig7Config parameterizes the temporal-selectivity measurement.
type Fig7Config struct {
	// SNR is the true channel SNR in dB (default 22; the paper's lab links
	// were short-range and strong).
	SNR float64
	// TausMs are the evaluated time gaps in milliseconds (default
	// 10,20,30,40 as in the paper).
	TausMs []float64
	// Draws is the number of (t, t+tau) sample pairs per tau for the CDF
	// (default 120).
	Draws int
	// Avg is the number of packets averaged per D(t) snapshot to suppress
	// estimator noise (default 4).
	Avg int
	// Scale shrinks Draws.
	Scale float64
	// Scenario is an optional scenario reference ("" = default world).
	Scenario string
}

func (c *Fig7Config) setDefaults() {
	if c.SNR == 0 {
		c.SNR = 22
	}
	if len(c.TausMs) == 0 {
		c.TausMs = []float64{10, 20, 30, 40}
	}
	if c.Draws == 0 {
		c.Draws = 120
	}
	if c.Avg == 0 {
		c.Avg = 4
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
}

// errorVectorSnapshot measures the per-subcarrier mean error-vector
// magnitudes D(t) and EVM(t), averaged over avg known packets at time t to
// suppress estimator noise (the channel is static within a snapshot).
func errorVectorSnapshot(ctx context.Context, ch scenario.ChannelModel, t float64, mode phy.Mode, snr float64, avg int, rng *rand.Rand) (d, evm []float64, err error) {
	if avg < 1 {
		avg = 1
	}
	scr := &trialScratch{}
	dAcc := make([]float64, ofdm.NumData)
	evmAcc := make([]float64, ofdm.NumData)
	for i := 0; i < avg; i++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		pr, err := probe(scr, ch, t, mode, 1024, snr, rng)
		if err != nil {
			return nil, nil, err
		}
		diag, err := phy.Diagnose(pr.tx, pr.fe, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		for k := 0; k < ofdm.NumData; k++ {
			dAcc[k] += diag.ErrorVectors[k]
			evmAcc[k] += diag.EVM[k]
		}
	}
	for k := 0; k < ofdm.NumData; k++ {
		dAcc[k] /= float64(avg)
		evmAcc[k] /= float64(avg)
	}
	return dAcc, evmAcc, nil
}

// fig7Tasks reproduces Fig. 7 in the indoor mobile scenario:
// (a) per-subcarrier EVM snapshots separated by time gap tau, showing the
// channel's frequency signature persists across tens of milliseconds, and
// (b) the CDF of the normalized EVM change (Eq. (2)) for each tau.
//
// The task list has two kinds of points: snapshot tasks 0..len(taus) for
// part (a) — task 0 is the tau=0 baseline — and one task per (tau, draw)
// pair for part (b), each measuring an independent D(t), D(t+tau) pair.
type fig7Tasks struct {
	cfg Fig7Config
}

func newFig7Tasks(cfg Fig7Config) fig7Tasks {
	cfg.setDefaults()
	return fig7Tasks{cfg: cfg}
}

// fig7Record is one task's outcome: a part (a) snapshot's EVM vector, or a
// part (b) draw's nabla-EVM (finite: NablaEVM rejects a zero reference).
type fig7Record struct {
	EVM   []float64 `json:"evm,omitempty"`
	Nabla float64   `json:"nabla,omitempty"`
}

func (f fig7Tasks) draws() int { return scaled(f.cfg.Draws, f.cfg.Scale) }

func (f fig7Tasks) NumTasks() int {
	return 1 + len(f.cfg.TausMs) + len(f.cfg.TausMs)*f.draws()
}

func (f fig7Tasks) RunTask(ctx context.Context, i int, rng *rand.Rand) (json.RawMessage, error) {
	mode, err := phy.ModeByRate(24)
	if err != nil {
		return nil, err
	}
	taus := f.cfg.TausMs
	// Per task: a channel model owns tap scratch, so point-tasks must not
	// share one (variant 0 of the same geometry is the same draw).
	ch, err := trialChannel(f.cfg.Scenario, channel.PositionC, true, 0)
	if err != nil {
		return nil, err
	}
	if i <= len(taus) { // snapshot task for part (a)
		const t0 = 0.050
		t := t0
		if i > 0 {
			t += taus[i-1] / 1000
		}
		_, evm, err := errorVectorSnapshot(ctx, ch, t, mode, f.cfg.SNR, f.cfg.Avg, rng)
		if err != nil {
			return nil, err
		}
		return json.Marshal(fig7Record{EVM: evm})
	}
	j := i - 1 - len(taus)
	tau := taus[j/f.draws()]
	t := 0.010 + float64(j%f.draws())*0.0075
	dT, _, err := errorVectorSnapshot(ctx, ch, t, mode, f.cfg.SNR, f.cfg.Avg, rng)
	if err != nil {
		return nil, err
	}
	dTau, _, err := errorVectorSnapshot(ctx, ch, t+tau/1000, mode, f.cfg.SNR, f.cfg.Avg, rng)
	if err != nil {
		return nil, err
	}
	nabla, err := modulation.NablaEVM(dT, dTau)
	if err != nil {
		return nil, err
	}
	return json.Marshal(fig7Record{Nabla: nabla})
}

func (f fig7Tasks) Assemble(recs []json.RawMessage) (*Result, error) {
	all, err := decodeRecords[fig7Record](recs)
	if err != nil {
		return nil, err
	}
	taus := f.cfg.TausMs
	snapshots := all[:1+len(taus)]
	draws := all[1+len(taus):]

	res := &Result{
		ID:     "fig7",
		Title:  "Temporal selectivity of subcarriers (mobile, walking speed)",
		XLabel: "subcarrier (a) / nabla-EVM (b)",
		YLabel: "EVM % (a) / CDF (b)",
	}
	names := []string{"EVM tau=0ms"}
	for _, tau := range taus {
		names = append(names, "EVM tau="+fmtMs(tau))
	}
	for i, snap := range snapshots {
		if len(snap.EVM) != ofdm.NumData {
			return nil, fmt.Errorf("experiments: fig7 snapshot %d carries %d EVM values, want %d", i, len(snap.EVM), ofdm.NumData)
		}
		s := Series{Name: names[i]}
		for d := 0; d < ofdm.NumData; d++ {
			s.X = append(s.X, float64(d+1))
			s.Y = append(s.Y, 100*snap.EVM[d])
		}
		res.Add(s)
	}
	for ti, tau := range taus {
		nablas := make([]float64, f.draws())
		for di := range nablas {
			nablas[di] = draws[ti*f.draws()+di].Nabla
		}
		cdf := dsp.EmpiricalCDF(nablas)
		s := Series{Name: "CDF tau=" + fmtMs(tau)}
		for _, p := range cdf {
			s.X = append(s.X, p.Value)
			s.Y = append(s.Y, p.Prob)
		}
		res.Add(s)
	}
	res.Note("nabla-EVM per Eq. (2) over the 48-entry error-vector magnitude vectors")
	return res, nil
}

func fmtMs(ms float64) string {
	return strconv.FormatFloat(ms, 'g', -1, 64) + "ms"
}
