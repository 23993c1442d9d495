package experiments

import (
	"context"
	"encoding/json"
	"math/rand"

	"cos/internal/channel"
	"cos/internal/ofdm"
	"cos/internal/phy"
)

// Fig5Config parameterizes the per-subcarrier EVM measurement.
type Fig5Config struct {
	// SNR is the true channel SNR in dB (default 18).
	SNR float64
	// Packets averaged per position (default 10).
	Packets int
	// Scale shrinks Packets.
	Scale float64
	// Scenario is an optional scenario reference ("" = default world).
	Scenario string
}

func (c *Fig5Config) setDefaults() {
	if c.SNR == 0 {
		c.SNR = 18
	}
	if c.Packets == 0 {
		c.Packets = 10
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
}

// fig5Tasks reproduces Fig. 5: measured per-subcarrier EVM (percent) of
// the 48 data subcarriers at the three receiver positions. Frequency-
// selective fading makes different subcarriers — and different positions —
// exhibit very different EVM. Each position is one point-task.
type fig5Tasks struct {
	cfg Fig5Config
}

func newFig5Tasks(cfg Fig5Config) fig5Tasks {
	cfg.setDefaults()
	return fig5Tasks{cfg: cfg}
}

// fig5Record is one position's per-subcarrier EVM, summed over its packets
// (EVM fractions are finite: a dead subcarrier equalizes to zero).
type fig5Record struct {
	EVMSum [ofdm.NumData]float64 `json:"evm_sum"`
}

func (f fig5Tasks) NumTasks() int { return len(channel.Positions()) }

func (f fig5Tasks) RunTask(ctx context.Context, i int, rng *rand.Rand) (json.RawMessage, error) {
	mode, err := phy.ModeByRate(24)
	if err != nil {
		return nil, err
	}
	ch, err := trialChannel(f.cfg.Scenario, channel.Positions()[i], false, 0)
	if err != nil {
		return nil, err
	}
	scr := &trialScratch{}
	var rec fig5Record
	for p := 0; p < scaled(f.cfg.Packets, f.cfg.Scale); p++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pr, err := probe(scr, ch, 0, mode, 1024, f.cfg.SNR, rng)
		if err != nil {
			return nil, err
		}
		diag, err := phy.Diagnose(pr.tx, pr.fe, nil, nil)
		if err != nil {
			return nil, err
		}
		for d := 0; d < ofdm.NumData; d++ {
			rec.EVMSum[d] += diag.EVM[d]
		}
	}
	return json.Marshal(rec)
}

func (f fig5Tasks) Assemble(recs []json.RawMessage) (*Result, error) {
	accs, err := decodeRecords[fig5Record](recs)
	if err != nil {
		return nil, err
	}
	packets := scaled(f.cfg.Packets, f.cfg.Scale)
	res := &Result{
		ID:     "fig5",
		Title:  "Per-subcarrier EVM at three positions (frequency selective fading)",
		XLabel: "subcarrier index (1-48)",
		YLabel: "EVM (%)",
	}
	for i, pos := range channel.Positions() {
		s := Series{Name: pos.String()}
		for d := 0; d < ofdm.NumData; d++ {
			s.X = append(s.X, float64(d+1))
			s.Y = append(s.Y, 100*accs[i].EVMSum[d]/float64(packets))
		}
		res.Add(s)
	}
	res.Note("EVM computed per Eq. (1) from equalized symbols against re-mapped ideal points")
	return res, nil
}
