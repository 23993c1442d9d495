package experiments

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"sync"

	"cos/internal/channel"
	icos "cos/internal/cos"
	"cos/internal/dsp"
	"cos/internal/ofdm"
	"cos/internal/phy"
	"cos/internal/pool"
	"cos/internal/scenario"
)

// fig10CtrlSCs is the contiguous control set of the paper's Fig. 10(a)
// (data subcarriers 10..17 in its 1-based numbering).
var fig10CtrlSCs = []int{9, 10, 11, 12, 13, 14, 15, 16}

// Fig10aConfig parameterizes the FFT-magnitude snapshot.
type Fig10aConfig struct {
	// SNR is the true channel SNR in dB (default 15).
	SNR float64
	// Scenario is an optional scenario reference ("" = default world).
	Scenario string
}

func (c *Fig10aConfig) setDefaults() {
	if c.SNR == 0 {
		c.SNR = 15
	}
}

// fig10aTasks reproduces Fig. 10(a): the relative FFT magnitudes of the
// 52 occupied subcarriers of one received OFDM symbol in which control
// subcarriers 10, 11 and 17 (1-based; 9, 10 and 16 here) carry silence
// symbols. The silent bins are clearly discernible. A single packet, so a
// single task.
type fig10aTasks struct {
	cfg Fig10aConfig
}

func newFig10aTasks(cfg Fig10aConfig) fig10aTasks {
	cfg.setDefaults()
	return fig10aTasks{cfg: cfg}
}

// fig10aRecord is the packet's |Y| over the 52 occupied subcarriers in
// ascending logical order; Assemble normalizes them to their maximum.
type fig10aRecord struct {
	Mags [52]float64 `json:"mags"`
}

func (f fig10aTasks) NumTasks() int { return 1 }

func (f fig10aTasks) RunTask(ctx context.Context, _ int, rng *rand.Rand) (json.RawMessage, error) {
	mode, err := phy.ModeByRate(24)
	if err != nil {
		return nil, err
	}
	ch, err := trialChannel(f.cfg.Scenario, channel.PositionC, false, 5)
	if err != nil {
		return nil, err
	}
	psdu := make([]byte, 256)
	rng.Read(psdu)
	tx, err := phy.BuildPacket(phy.TxConfig{Mode: mode}, psdu)
	if err != nil {
		return nil, err
	}
	// Silence subcarriers 9, 10 and 16 of symbol 0 (the paper's 10/11/17):
	// interval 5 between the 10 and the 16 encodes "0101".
	const sym = 0
	if _, err := icos.InsertSilences(tx.Grid, []icos.Pos{{Sym: sym, SC: 9}, {Sym: sym, SC: 10}, {Sym: sym, SC: 16}}); err != nil {
		return nil, err
	}
	samples, err := tx.Samples()
	if err != nil {
		return nil, err
	}
	rx, _, err := ch.Propagate(nil, samples, 0, f.cfg.SNR, rng)
	if err != nil {
		return nil, err
	}
	fe, err := phy.RunFrontEnd(rx)
	if err != nil {
		return nil, err
	}
	var rec fig10aRecord
	i := 0
	for k := -26; k <= 26; k++ {
		if k == 0 {
			continue
		}
		bin, err := ofdm.Bin(k)
		if err != nil {
			return nil, err
		}
		rec.Mags[i] = math.Sqrt(dsp.MagSq(fe.Bins[sym][bin]))
		i++
	}
	return json.Marshal(rec)
}

func (f fig10aTasks) Assemble(recs []json.RawMessage) (*Result, error) {
	all, err := decodeRecords[fig10aRecord](recs)
	if err != nil {
		return nil, err
	}
	mags := all[0].Mags
	max := 0.0
	for _, m := range mags {
		if m > max {
			max = m
		}
	}
	res := &Result{
		ID:     "fig10a",
		Title:  "Relative FFT magnitudes of 52 subcarriers with silences on control subcarriers",
		XLabel: "subcarrier index (1-52)",
		YLabel: "relative FFT magnitude",
	}
	s := Series{Name: "RelativeMagnitude"}
	for i, m := range mags {
		s.X = append(s.X, float64(i+1))
		s.Y = append(s.Y, m/max)
	}
	res.Add(s)
	res.Note("silences inserted on data subcarriers 10, 11, 17 (1-based) of the plotted symbol")
	return res, nil
}

// Fig10bConfig parameterizes the threshold sweep.
type Fig10bConfig struct {
	// MeasuredSNR is the calibrated NIC SNR of the operating point
	// (default 9.2 dB as in the paper).
	MeasuredSNR float64
	// Packets per threshold point (default 120).
	Packets int
	// Points is the number of threshold points (default 25).
	Points int
	// Scale shrinks Packets.
	Scale float64
	// Seed is the run's seed (RunOptions.Seed); the shared calibration
	// prelude draws from its task-0 RNG.
	Seed int64
	// Scenario is an optional scenario reference ("" = default world).
	Scenario string
}

func (c *Fig10bConfig) setDefaults() {
	if c.MeasuredSNR == 0 {
		c.MeasuredSNR = 9.2
	}
	if c.Packets == 0 {
		c.Packets = 120
	}
	if c.Points == 0 {
		c.Points = 25
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// fig10bTasks reproduces Fig. 10(b): false positive and false negative
// probabilities of silence detection as the (fixed) energy-detection
// threshold sweeps from far below the noise floor to far above the signal
// level. Too low a threshold misses silences (false negatives); too high a
// threshold reads faded data symbols as silences (false positives).
// The x axis is the threshold in dB relative to the estimated noise floor
// (the paper's absolute dBm axis shifted by its noise floor).
//
// Every threshold point shares one calibrated operating point and noise
// floor, measured on the index-0 task RNG: task 0 is that prelude's
// reserved slot (its record is empty), and tasks 1..Points recompute it
// once per TaskSet value before measuring their threshold.
type fig10bTasks struct {
	cfg Fig10bConfig
	// operatingPoint returns the calibrated true SNR and the reference
	// noise floor (memoised: computed by the first task that needs it).
	operatingPoint func() ([2]float64, error)
}

func newFig10bTasks(cfg Fig10bConfig) fig10bTasks {
	cfg.setDefaults()
	return fig10bTasks{cfg: cfg, operatingPoint: sync.OnceValues(func() ([2]float64, error) {
		mode, err := phy.ModeByRate(12)
		if err != nil {
			return [2]float64{}, err
		}
		ch, err := trialChannel(cfg.Scenario, channel.PositionB, false, 4)
		if err != nil {
			return [2]float64{}, err
		}
		rng := pool.TaskRNG(cfg.Seed, 0)
		scr := &trialScratch{}
		actual, err := calibrateActualSNR(scr, ch, 0, mode, cfg.MeasuredSNR, rng)
		if err != nil {
			return [2]float64{}, err
		}
		// Reference noise floor for the x axis.
		pr, err := probe(scr, ch, 0, mode, 256, actual, rng)
		if err != nil {
			return [2]float64{}, err
		}
		return [2]float64{actual, pr.fe.NoiseVar}, nil
	})}
}

// detectionRecord is one operating point's detection error rates (finite:
// the rates return 0 for an empty denominator).
type detectionRecord struct {
	FP float64 `json:"fp"`
	FN float64 `json:"fn"`
}

func (f fig10bTasks) NumTasks() int { return f.cfg.Points + 1 }

// relDB is threshold point pi's offset above the noise floor in dB.
func (f fig10bTasks) relDB(pi int) float64 {
	return -15 + 40*float64(pi)/float64(f.cfg.Points-1)
}

func (f fig10bTasks) RunTask(ctx context.Context, i int, rng *rand.Rand) (json.RawMessage, error) {
	if i == 0 {
		return emptyRecord, nil
	}
	op, err := f.operatingPoint()
	if err != nil {
		return nil, err
	}
	actual, noiseFloor := op[0], op[1]
	mode, err := phy.ModeByRate(12)
	if err != nil {
		return nil, err
	}
	ch, err := trialChannel(f.cfg.Scenario, channel.PositionB, false, 4)
	if err != nil {
		return nil, err
	}
	scr := &trialScratch{}
	th := noiseFloor * dsp.Linear(f.relDB(i-1))
	var stats icos.DetectionStats
	for p := 0; p < scaled(f.cfg.Packets, f.cfg.Scale); p++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := runCoSTrial(scr, ch, 0, actual, cosTrialConfig{
			mode: mode, psduLen: 1024, silences: 12, ctrlSCs: fig10CtrlSCs,
			fixedThreshold: th,
		}, rng)
		if err != nil {
			return nil, err
		}
		stats.Add(r.detection)
	}
	return json.Marshal(detectionRecord{FP: stats.FalsePositiveRate(), FN: stats.FalseNegativeRate()})
}

func (f fig10bTasks) Assemble(recs []json.RawMessage) (*Result, error) {
	pts, err := decodeRecords[detectionRecord](recs)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig10b",
		Title:  "Detection accuracy vs energy-detection threshold (measured SNR 9.2 dB)",
		XLabel: "threshold (dB above noise floor)",
		YLabel: "probability",
	}
	fp := Series{Name: "FalsePositive"}
	fn := Series{Name: "FalseNegative"}
	for pi, pt := range pts[1:] {
		fp.X = append(fp.X, f.relDB(pi))
		fp.Y = append(fp.Y, pt.FP)
		fn.X = append(fn.X, f.relDB(pi))
		fn.Y = append(fn.Y, pt.FN)
	}
	res.Add(fp)
	res.Add(fn)
	return res, nil
}

// Fig10cConfig parameterizes the accuracy-vs-SNR sweep.
type Fig10cConfig struct {
	// SNRs are the measured-SNR operating points (default 3..20 dB).
	SNRs []float64
	// Packets per point (default 1000, as in the paper).
	Packets int
	// Scale shrinks Packets.
	Scale float64
	// Seed is the run's seed (RunOptions.Seed); Fig. 10(d)'s interference
	// arm draws from seed+1.
	Seed int64
	// Scenario is an optional scenario reference ("" = default world).
	Scenario string
}

func (c *Fig10cConfig) setDefaults() {
	if len(c.SNRs) == 0 {
		c.SNRs = []float64{3, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	}
	if c.Packets == 0 {
		c.Packets = 1000
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// accuracyTasks runs the detection-accuracy measurement behind Figs. 10(c)
// and 10(d): false positive and negative probabilities of the adaptive
// detector across channel SNRs. Each SNR operating point is one task (it
// calibrates, then accumulates its own detection statistics). Fig. 10(d)
// appends a second arm under pulse interference, tasks len(SNRs).. — its
// tasks draw from the seed+1 task RNG of their SNR index instead of the
// RNG they are handed, so the two arms see independent noise while task
// i of each arm keeps its seed.
type accuracyTasks struct {
	cfg Fig10cConfig
	// interfered adds the pulse-interference arm (Fig. 10(d)).
	interfered bool
}

// newFig10cTasks reproduces Fig. 10(c): detection accuracy of the adaptive
// detector across channel SNRs; the false-negative probability stays below
// ~1% everywhere, while false positives rise only at very low SNR where
// deep fades approach the noise floor.
func newFig10cTasks(cfg Fig10cConfig) accuracyTasks {
	cfg.setDefaults()
	return accuracyTasks{cfg: cfg}
}

// newFig10dTasks reproduces Fig. 10(d): the false-negative probability
// with and without strong pulse interference. Interference landing on a
// silent bin lifts it above threshold and the silence is missed.
func newFig10dTasks(cfg Fig10cConfig) accuracyTasks {
	cfg.setDefaults()
	return accuracyTasks{cfg: cfg, interfered: true}
}

func (f accuracyTasks) NumTasks() int {
	if f.interfered {
		return 2 * len(f.cfg.SNRs)
	}
	return len(f.cfg.SNRs)
}

func (f accuracyTasks) RunTask(ctx context.Context, i int, rng *rand.Rand) (json.RawMessage, error) {
	mode, err := phy.ModeByRate(12)
	if err != nil {
		return nil, err
	}
	// Per task: a channel model owns tap scratch, so point-tasks must not
	// share one (the same variant is the same deterministic draw).
	ch, err := trialChannel(f.cfg.Scenario, channel.PositionB, false, 4)
	if err != nil {
		return nil, err
	}
	si := i % len(f.cfg.SNRs)
	trial := cosTrialConfig{mode: mode, psduLen: 1024, silences: 12, ctrlSCs: fig10CtrlSCs}
	// Calibration runs on the bare channel; the interference arm's trials
	// see pulses after propagation.
	trialCh := ch
	if i >= len(f.cfg.SNRs) {
		rng = pool.TaskRNG(f.cfg.Seed+1, si)
		trialCh = scenario.Interfered(ch, &channel.PulseInterferer{Power: 40, BurstLen: 160, StartProb: 0.004})
	}
	scr := &trialScratch{}
	actual, err := calibrateActualSNR(scr, ch, 0, mode, f.cfg.SNRs[si], rng)
	if err != nil {
		return nil, err
	}
	var stats icos.DetectionStats
	for p := 0; p < scaled(f.cfg.Packets, f.cfg.Scale); p++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := runCoSTrial(scr, trialCh, 0, actual, trial, rng)
		if err != nil {
			return nil, err
		}
		stats.Add(r.detection)
	}
	return json.Marshal(detectionRecord{FP: stats.FalsePositiveRate(), FN: stats.FalseNegativeRate()})
}

func (f accuracyTasks) Assemble(recs []json.RawMessage) (*Result, error) {
	pts, err := decodeRecords[detectionRecord](recs)
	if err != nil {
		return nil, err
	}
	arm := func(pts []detectionRecord) (fp, fn Series) {
		for i, snr := range f.cfg.SNRs {
			fp.X = append(fp.X, snr)
			fp.Y = append(fp.Y, pts[i].FP)
			fn.X = append(fn.X, snr)
			fn.Y = append(fn.Y, pts[i].FN)
		}
		return fp, fn
	}
	fp, fn := arm(pts)
	if !f.interfered {
		fp.Name, fn.Name = "FalsePositive", "FalseNegative"
		res := &Result{
			ID:     "fig10c",
			Title:  "Detection accuracy vs measured SNR (adaptive threshold)",
			XLabel: "measured SNR (dB)",
			YLabel: "probability",
		}
		res.Add(fp)
		res.Add(fn)
		return res, nil
	}
	_, fnDirty := arm(pts[len(f.cfg.SNRs):])
	fn.Name = "CoS"
	fnDirty.Name = "CoS with strong interference"
	res := &Result{
		ID:     "fig10d",
		Title:  "Impact of strong interference on false negative probability",
		XLabel: "measured SNR (dB)",
		YLabel: "false negative probability",
	}
	res.Add(fnDirty)
	res.Add(fn)
	return res, nil
}
