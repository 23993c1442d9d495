package experiments

import (
	"context"
	"encoding/json"
	"math/rand"

	"cos/internal/channel"
	"cos/internal/ofdm"
	"cos/internal/phy"
)

// Fig6Config parameterizes the symbol-error pattern measurement.
type Fig6Config struct {
	// SNR is the true channel SNR in dB (default 19 — low enough for the
	// 16QAM mode to produce a visible error pattern on weak subcarriers
	// while strong subcarriers stay nearly error-free).
	SNR float64
	// Packets accumulated (default 300).
	Packets int
	// Positions is the number of in-packet symbol positions reported in
	// part (a) (default 1000, as in the paper).
	Positions int
	// Scale shrinks Packets.
	Scale float64
	// Scenario is an optional scenario reference ("" = default world).
	Scenario string
}

func (c *Fig6Config) setDefaults() {
	if c.SNR == 0 {
		c.SNR = 19
	}
	if c.Packets == 0 {
		c.Packets = 300
	}
	if c.Positions == 0 {
		c.Positions = 1000
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
}

// fig6Tasks reproduces Fig. 6 at Position A (mobile): (a) the frequency
// of symbol errors at each in-packet symbol position — revealing the
// ~48-position periodicity induced by weak subcarriers — and (b) the
// symbol error rate of each data subcarrier.
//
// Each packet is an independent point-task: the mobile channel is a pure
// function of the transmit time t = p * 2 ms, so packet p needs no state
// from packet p-1.
type fig6Tasks struct {
	cfg Fig6Config
}

func newFig6Tasks(cfg Fig6Config) fig6Tasks {
	cfg.setDefaults()
	return fig6Tasks{cfg: cfg}
}

// fig6Record is one packet's error pattern (integer counts only); Assemble
// merges the packets in index order.
type fig6Record struct {
	ErrorPositions []int             `json:"error_positions"`
	SCErrors       [ofdm.NumData]int `json:"sc_errors"`
	SCCounts       [ofdm.NumData]int `json:"sc_counts"`
}

func (f fig6Tasks) NumTasks() int { return scaled(f.cfg.Packets, f.cfg.Scale) }

func (f fig6Tasks) RunTask(ctx context.Context, p int, rng *rand.Rand) (json.RawMessage, error) {
	mode, err := phy.ModeByRate(24)
	if err != nil {
		return nil, err
	}
	// Per task: a channel model owns tap scratch, so point-tasks must not
	// share one (variant 0 of the same geometry is the same draw).
	ch, err := trialChannel(f.cfg.Scenario, channel.PositionA, true, 0)
	if err != nil {
		return nil, err
	}
	t := float64(p) * 2e-3 // back-to-back traffic at 2 ms spacing
	pr, err := probe(&trialScratch{}, ch, t, mode, 1024, f.cfg.SNR, rng)
	if err != nil {
		return nil, err
	}
	diag, err := phy.Diagnose(pr.tx, pr.fe, nil, nil)
	if err != nil {
		return nil, err
	}
	rec := fig6Record{
		ErrorPositions: diag.ErrorPositions(),
		SCErrors:       diag.SubcarrierErrorCounts,
		SCCounts:       diag.SymbolsPerSubcarrier,
	}
	return json.Marshal(rec)
}

func (f fig6Tasks) Assemble(recs []json.RawMessage) (*Result, error) {
	perPacket, err := decodeRecords[fig6Record](recs)
	if err != nil {
		return nil, err
	}
	packets := len(perPacket)
	posErrors := make([]int, f.cfg.Positions)
	var scErrors, scCounts [ofdm.NumData]int
	for _, pkt := range perPacket {
		for _, pos := range pkt.ErrorPositions {
			if pos >= 0 && pos < f.cfg.Positions {
				posErrors[pos]++
			}
		}
		for d := 0; d < ofdm.NumData; d++ {
			scErrors[d] += pkt.SCErrors[d]
			scCounts[d] += pkt.SCCounts[d]
		}
	}

	res := &Result{
		ID:     "fig6",
		Title:  "Symbol error pattern within a packet (Position A, mobile)",
		XLabel: "symbol position / subcarrier index",
		YLabel: "error frequency / SER",
	}
	a := Series{Name: "ErrorFreqByPosition"}
	for i := 0; i < f.cfg.Positions; i++ {
		a.X = append(a.X, float64(i+1))
		a.Y = append(a.Y, float64(posErrors[i])/float64(packets))
	}
	res.Add(a)
	b := Series{Name: "SERBySubcarrier"}
	for d := 0; d < ofdm.NumData; d++ {
		ser := 0.0
		if scCounts[d] > 0 {
			ser = float64(scErrors[d]) / float64(scCounts[d])
		}
		b.X = append(b.X, float64(d+1))
		b.Y = append(b.Y, ser)
	}
	res.Add(b)
	res.Note("position = ofdmSymbol*48 + subcarrier; the periodicity of part (a) equals the 48 data subcarriers")
	return res, nil
}
