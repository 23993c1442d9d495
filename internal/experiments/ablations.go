package experiments

import (
	"context"
	"encoding/json"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"cos/internal/channel"
	icos "cos/internal/cos"
	"cos/internal/dsp"
	"cos/internal/ofdm"
	"cos/internal/phy"
	"cos/internal/pool"
)

// AblationConfig parameterizes the design-choice ablations.
type AblationConfig struct {
	// Packets per measured point (default 120).
	Packets int
	// Scale shrinks Packets.
	Scale float64
	// Seed is the run's seed (RunOptions.Seed); the threshold ablation's
	// calibration prelude draws from its task-0 RNG.
	Seed int64
	// Scenario is an optional scenario reference ("" = default world).
	Scenario string
}

// ablationConfigFrom maps RunOptions onto an AblationConfig.
func ablationConfigFrom(o RunOptions) AblationConfig {
	return AblationConfig{Scale: o.Scale, Seed: o.Seed, Scenario: o.Scenario}
}

func (c *AblationConfig) setDefaults() {
	if c.Packets == 0 {
		c.Packets = 120
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// ablationEVDTasks compares erasure Viterbi decoding (silences marked via
// the detected mask) against erasure-ignorant decoding (silences demapped
// as if they were data) as the silence load grows: PRR vs silences per
// packet. This isolates the value of Sec. III-E. Each budget is one task.
type ablationEVDTasks struct {
	cfg AblationConfig
}

func newAblationEVDTasks(cfg AblationConfig) ablationEVDTasks {
	cfg.setDefaults()
	return ablationEVDTasks{cfg: cfg}
}

// evdBudgets are the swept silence loads per packet.
var evdBudgets = []int{0, 4, 8, 16, 24, 32, 48, 64}

// evdRecord counts one budget's delivered packets per decoder arm.
type evdRecord struct {
	OKEVD int `json:"ok_evd"`
	OKIgn int `json:"ok_ign"`
}

func (f ablationEVDTasks) NumTasks() int { return len(evdBudgets) }

func (f ablationEVDTasks) RunTask(ctx context.Context, i int, rng *rand.Rand) (json.RawMessage, error) {
	mode, err := phy.ModeByRate(24)
	if err != nil {
		return nil, err
	}
	const snr = 15.0
	nSym := mode.SymbolsForPSDU(1024)
	// Per task: a channel model owns tap scratch, so point-tasks must not
	// share one (the same variant is the same deterministic draw).
	ch, err := trialChannel(f.cfg.Scenario, channel.PositionB, false, 11)
	if err != nil {
		return nil, err
	}
	b := evdBudgets[i]
	scr := &trialScratch{}
	ctrlSCs := fig10CtrlSCs
	if b > 0 {
		if sel, err := selectCtrlSCsForBudget(scr, ch, 0, snr, mode, nSym, b, icos.DefaultBitsPerInterval, rng); err == nil {
			ctrlSCs = sel
		}
	}
	var rec evdRecord
	for p := 0; p < scaled(f.cfg.Packets, f.cfg.Scale); p++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		trial := cosTrialConfig{mode: mode, psduLen: 1024, silences: b, ctrlSCs: ctrlSCs}
		r, err := runCoSTrial(scr, ch, 0, snr, trial, rng)
		if err != nil {
			continue
		}
		if r.dataOK {
			rec.OKEVD++
		}
		// Ignorant arm: decode without any erasure mask.
		trial.ignoreErasures = true
		r, err = runCoSTrial(scr, ch, 0, snr, trial, rng)
		if err != nil {
			continue
		}
		if r.dataOK {
			rec.OKIgn++
		}
	}
	return json.Marshal(rec)
}

func (f ablationEVDTasks) Assemble(recs []json.RawMessage) (*Result, error) {
	pts, err := decodeRecords[evdRecord](recs)
	if err != nil {
		return nil, err
	}
	packets := float64(scaled(f.cfg.Packets, f.cfg.Scale))
	res := &Result{
		ID:     "ablation-evd",
		Title:  "Erasure-aware vs erasure-ignorant decoding (24 Mb/s, 15 dB)",
		XLabel: "silence symbols per packet",
		YLabel: "packet reception rate",
	}
	evd := Series{Name: "ErasureViterbi"}
	ignorant := Series{Name: "ErasureIgnorant"}
	for i, b := range evdBudgets {
		evd.X = append(evd.X, float64(b))
		evd.Y = append(evd.Y, float64(pts[i].OKEVD)/packets)
		ignorant.X = append(ignorant.X, float64(b))
		ignorant.Y = append(ignorant.Y, float64(pts[i].OKIgn)/packets)
	}
	res.Add(evd)
	res.Add(ignorant)
	return res, nil
}

// ablationPlacementTasks compares silence placement strategies at a fixed
// silence load: on the weakest subcarriers (CoS), on random subcarriers,
// and on the strongest subcarriers. Decoding uses the genie mask so the
// measurement isolates how many *new* symbol errors each placement adds,
// independent of detection quality — the claim of Sec. II-D.
// Each (placement, budget) cell is one task.
type ablationPlacementTasks struct {
	cfg AblationConfig
	// ranking returns the weakest and strongest eight data subcarriers of
	// the fixed channel (memoised: computed by the first task that needs
	// it; genie knowledge, no randomness).
	ranking func() ([2][]int, error)
}

func newAblationPlacementTasks(cfg AblationConfig) ablationPlacementTasks {
	cfg.setDefaults()
	return ablationPlacementTasks{cfg: cfg, ranking: sync.OnceValues(func() ([2][]int, error) {
		ch, err := trialChannel(cfg.Scenario, channel.PositionA, false, 13)
		if err != nil {
			return [2][]int{}, err
		}
		h, err := freqResponse(ch, 0)
		if err != nil {
			return [2][]int{}, err
		}
		type sub struct {
			idx  int
			gain float64
		}
		ranked := make([]sub, ofdm.NumData)
		for d := 0; d < ofdm.NumData; d++ {
			k, err := ofdm.DataIndex(d)
			if err != nil {
				return [2][]int{}, err
			}
			bin, err := ofdm.Bin(k)
			if err != nil {
				return [2][]int{}, err
			}
			ranked[d] = sub{idx: d, gain: dsp.MagSq(h[bin])}
		}
		sort.Slice(ranked, func(a, b int) bool { return ranked[a].gain < ranked[b].gain })
		pick := func(subs []sub) []int {
			out := make([]int, 0, len(subs))
			for _, s := range subs {
				out = append(out, s.idx)
			}
			sort.Ints(out)
			return out
		}
		return [2][]int{pick(ranked[:8]), pick(ranked[len(ranked)-8:])}, nil
	})}
}

// placementNames label the strategies in task order: the weakest eight,
// a random eight per packet, and the strongest eight data subcarriers.
var (
	placementNames   = []string{"WeakSubcarriers", "RandomSubcarriers", "StrongSubcarriers"}
	placementBudgets = []int{16, 48, 96, 144}
)

// packetsOK counts one cell's delivered packets.
type packetsOK struct {
	OK int `json:"ok"`
}

func (f ablationPlacementTasks) NumTasks() int { return len(placementNames) * len(placementBudgets) }

func (f ablationPlacementTasks) RunTask(ctx context.Context, i int, rng *rand.Rand) (json.RawMessage, error) {
	mode, err := phy.ModeByRate(36)
	if err != nil {
		return nil, err
	}
	const snr = 17.2 // just above the 16 dB threshold: the budget binds
	nSym := mode.SymbolsForPSDU(1024)
	rank, err := f.ranking()
	if err != nil {
		return nil, err
	}
	ch, err := trialChannel(f.cfg.Scenario, channel.PositionA, false, 13)
	if err != nil {
		return nil, err
	}
	pi := i / len(placementBudgets)
	b := placementBudgets[i%len(placementBudgets)]
	scr := &trialScratch{}
	var rec packetsOK
	for p := 0; p < scaled(f.cfg.Packets, f.cfg.Scale); p++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var scs []int
		switch pi {
		case 0:
			scs = rank[0]
		case 1:
			scs = rng.Perm(ofdm.NumData)[:8]
			sort.Ints(scs)
		default:
			scs = rank[1]
		}
		positions, err := randomPlacement(rng, b, nSym, scs)
		if err != nil {
			continue
		}
		trial := cosTrialConfig{
			mode: mode, psduLen: 1024,
			ctrlSCs: scs, placement: positions, genieMask: true,
		}
		r, err := runCoSTrial(scr, ch, 0, snr, trial, rng)
		if err != nil {
			continue
		}
		if r.dataOK {
			rec.OK++
		}
	}
	return json.Marshal(rec)
}

func (f ablationPlacementTasks) Assemble(recs []json.RawMessage) (*Result, error) {
	cells, err := decodeRecords[packetsOK](recs)
	if err != nil {
		return nil, err
	}
	packets := float64(scaled(f.cfg.Packets, f.cfg.Scale))
	res := &Result{
		ID:     "ablation-placement",
		Title:  "Silence placement strategy vs PRR (36 Mb/s, 17.2 dB, genie mask)",
		XLabel: "silence symbols per packet",
		YLabel: "packet reception rate",
	}
	for pi, name := range placementNames {
		s := Series{Name: name}
		for bi, b := range placementBudgets {
			s.X = append(s.X, float64(b))
			s.Y = append(s.Y, float64(cells[pi*len(placementBudgets)+bi].OK)/packets)
		}
		res.Add(s)
	}
	res.Note("genie erasure mask isolates placement quality from detection quality")
	return res, nil
}

// randomPlacement scatters n silences uniformly over the (symbol, ctrlSC)
// traversal of a packet.
func randomPlacement(rng *rand.Rand, n, nSym int, ctrlSCs []int) ([]icos.Pos, error) {
	total := nSym * len(ctrlSCs)
	if n > total {
		n = total
	}
	idx := rng.Perm(total)[:n]
	sort.Ints(idx)
	out := make([]icos.Pos, 0, n)
	for _, i := range idx {
		out = append(out, icos.Pos{Sym: i / len(ctrlSCs), SC: ctrlSCs[i%len(ctrlSCs)]})
	}
	return out, nil
}

// ablationThresholdTasks compares the adaptive per-subcarrier detector
// against a fixed global threshold on control-message delivery across SNRs
// — the value of the pilot-aided noise tracking of Sec. III-C.
//
// The fixed threshold is shared by every point, calibrated on the index-0
// task RNG: task 0 is that prelude's reserved slot (its record is empty),
// and tasks 1..len(snrs) recompute it once per TaskSet value.
type ablationThresholdTasks struct {
	cfg AblationConfig
	// fixedThreshold returns the calibrated global threshold (memoised:
	// computed by the first task that needs it).
	fixedThreshold func() (float64, error)
}

func newAblationThresholdTasks(cfg AblationConfig) ablationThresholdTasks {
	cfg.setDefaults()
	return ablationThresholdTasks{cfg: cfg, fixedThreshold: sync.OnceValues(func() (float64, error) {
		mode, err := phy.ModeByRate(12)
		if err != nil {
			return 0, err
		}
		ch, err := trialChannel(cfg.Scenario, channel.PositionB, false, 4)
		if err != nil {
			return 0, err
		}
		// Calibrated once at the middle SNR, then used everywhere — what a
		// non-adaptive implementation would do.
		rng := pool.TaskRNG(cfg.Seed, 0)
		scr := &trialScratch{}
		midActual, err := calibrateActualSNR(scr, ch, 0, mode, 12, rng)
		if err != nil {
			return 0, err
		}
		pr, err := probe(scr, ch, 0, mode, 256, midActual, rng)
		if err != nil {
			return 0, err
		}
		return 6 * pr.fe.NoiseVar, nil
	})}
}

// thresholdSNRs are the swept measured SNRs.
var thresholdSNRs = []float64{6, 9, 12, 15, 18, 21}

// thresholdRecord counts one SNR point's delivered control messages per
// detector arm.
type thresholdRecord struct {
	OKAdaptive int `json:"ok_adaptive"`
	OKFixed    int `json:"ok_fixed"`
}

func (f ablationThresholdTasks) NumTasks() int { return len(thresholdSNRs) + 1 }

func (f ablationThresholdTasks) RunTask(ctx context.Context, i int, rng *rand.Rand) (json.RawMessage, error) {
	if i == 0 {
		return emptyRecord, nil
	}
	fixedTh, err := f.fixedThreshold()
	if err != nil {
		return nil, err
	}
	mode, err := phy.ModeByRate(12)
	if err != nil {
		return nil, err
	}
	nSym := mode.SymbolsForPSDU(1024)
	ch, err := trialChannel(f.cfg.Scenario, channel.PositionB, false, 4)
	if err != nil {
		return nil, err
	}
	scr := &trialScratch{}
	actual, err := calibrateActualSNR(scr, ch, 0, mode, thresholdSNRs[i-1], rng)
	if err != nil {
		return nil, err
	}
	// Both arms use the same per-SNR subcarrier selection so the
	// comparison isolates the detector's threshold policy.
	ctrlSCs, err := selectCtrlSCsForBudget(scr, ch, 0, actual, mode, nSym, 12, icos.DefaultBitsPerInterval, rng)
	if err != nil {
		ctrlSCs = fig10CtrlSCs
	}
	var rec thresholdRecord
	for p := 0; p < scaled(f.cfg.Packets, f.cfg.Scale); p++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		base := cosTrialConfig{mode: mode, psduLen: 1024, silences: 12, ctrlSCs: ctrlSCs}
		if r, err := runCoSTrial(scr, ch, 0, actual, base, rng); err == nil && r.ctrlOK {
			rec.OKAdaptive++
		}
		base.fixedThreshold = fixedTh
		if r, err := runCoSTrial(scr, ch, 0, actual, base, rng); err == nil && r.ctrlOK {
			rec.OKFixed++
		}
	}
	return json.Marshal(rec)
}

func (f ablationThresholdTasks) Assemble(recs []json.RawMessage) (*Result, error) {
	pts, err := decodeRecords[thresholdRecord](recs)
	if err != nil {
		return nil, err
	}
	packets := float64(scaled(f.cfg.Packets, f.cfg.Scale))
	res := &Result{
		ID:     "ablation-threshold",
		Title:  "Adaptive vs fixed detection threshold: control delivery vs SNR",
		XLabel: "measured SNR (dB)",
		YLabel: "control message delivery rate",
	}
	adaptive := Series{Name: "AdaptivePerSubcarrier"}
	fixed := Series{Name: "FixedGlobal"}
	for i, snr := range thresholdSNRs {
		adaptive.X = append(adaptive.X, snr)
		adaptive.Y = append(adaptive.Y, float64(pts[i+1].OKAdaptive)/packets)
		fixed.X = append(fixed.X, snr)
		fixed.Y = append(fixed.Y, float64(pts[i+1].OKFixed)/packets)
	}
	res.Add(adaptive)
	res.Add(fixed)
	return res, nil
}

// controlAccuracyTasks measures the paper's headline claim — control
// messages delivered with close to 100% accuracy across the practical SNR
// region — using the full closed-loop pipeline. One task per SNR point.
type controlAccuracyTasks struct {
	cfg AblationConfig
}

func newControlAccuracyTasks(cfg AblationConfig) controlAccuracyTasks {
	cfg.setDefaults()
	return controlAccuracyTasks{cfg: cfg}
}

// accuracySNRs are the swept measured SNRs.
var accuracySNRs = []float64{8, 10, 12, 14, 16, 18, 20, 22}

// accuracyRecord counts one SNR point's delivered control messages and
// data packets.
type accuracyRecord struct {
	OKCtrl int `json:"ok_ctrl"`
	OKData int `json:"ok_data"`
}

func (f controlAccuracyTasks) NumTasks() int { return len(accuracySNRs) }

func (f controlAccuracyTasks) RunTask(ctx context.Context, i int, rng *rand.Rand) (json.RawMessage, error) {
	mode, err := phy.ModeByRate(12)
	if err != nil {
		return nil, err
	}
	nSym := mode.SymbolsForPSDU(1024)
	// Per task: a channel model owns tap scratch, so point-tasks must not
	// share one (the same variant is the same deterministic draw).
	ch, err := trialChannel(f.cfg.Scenario, channel.PositionB, false, 19)
	if err != nil {
		return nil, err
	}
	scr := &trialScratch{}
	actual, err := calibrateActualSNR(scr, ch, 0, mode, accuracySNRs[i], rng)
	if err != nil {
		return nil, err
	}
	ctrlSCs, err := selectCtrlSCsForBudget(scr, ch, 0, actual, mode, nSym, 12, icos.DefaultBitsPerInterval, rng)
	if err != nil {
		ctrlSCs = fig10CtrlSCs
	}
	var rec accuracyRecord
	for p := 0; p < scaled(f.cfg.Packets, f.cfg.Scale); p++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := runCoSTrial(scr, ch, 0, actual, cosTrialConfig{
			mode: mode, psduLen: 1024, silences: 12, ctrlSCs: ctrlSCs,
		}, rng)
		if err != nil {
			continue
		}
		if r.ctrlOK {
			rec.OKCtrl++
		}
		if r.dataOK {
			rec.OKData++
		}
	}
	return json.Marshal(rec)
}

func (f controlAccuracyTasks) Assemble(recs []json.RawMessage) (*Result, error) {
	pts, err := decodeRecords[accuracyRecord](recs)
	if err != nil {
		return nil, err
	}
	packets := float64(scaled(f.cfg.Packets, f.cfg.Scale))
	res := &Result{
		ID:     "accuracy",
		Title:  "Control message delivery accuracy vs measured SNR",
		XLabel: "measured SNR (dB)",
		YLabel: "delivery rate",
	}
	s := Series{Name: "ControlDelivery"}
	d := Series{Name: "DataPRR"}
	for i, snr := range accuracySNRs {
		s.X = append(s.X, snr)
		s.Y = append(s.Y, float64(pts[i].OKCtrl)/packets)
		d.X = append(d.X, snr)
		d.Y = append(d.Y, float64(pts[i].OKData)/packets)
	}
	res.Add(s)
	res.Add(d)
	return res, nil
}

// ablationQuantizationTasks measures the PRR cost of fixed-point LLRs in
// the CoS pipeline: packets with a realistic silence load decoded with
// float, 5-bit, 4-bit and 3-bit decoder inputs. One task per SNR point,
// the widths swept inside the task (they share the point's calibration).
type ablationQuantizationTasks struct {
	cfg AblationConfig
}

func newAblationQuantizationTasks(cfg AblationConfig) ablationQuantizationTasks {
	cfg.setDefaults()
	return ablationQuantizationTasks{cfg: cfg}
}

var (
	quantizationSNRs   = []float64{13, 14, 15, 16}
	quantizationWidths = [...]int{0, 5, 4, 3} // 0 = float
)

// quantizationRecord counts one SNR point's delivered packets per LLR
// width, in quantizationWidths order.
type quantizationRecord struct {
	OK [len(quantizationWidths)]int `json:"ok"`
}

func (f ablationQuantizationTasks) NumTasks() int { return len(quantizationSNRs) }

func (f ablationQuantizationTasks) RunTask(ctx context.Context, i int, rng *rand.Rand) (json.RawMessage, error) {
	mode, err := phy.ModeByRate(24)
	if err != nil {
		return nil, err
	}
	// Per task: a channel model owns tap scratch, so point-tasks must not
	// share one (the same variant is the same deterministic draw).
	ch, err := trialChannel(f.cfg.Scenario, channel.PositionB, false, 11)
	if err != nil {
		return nil, err
	}
	scr := &trialScratch{}
	actual, err := calibrateActualSNR(scr, ch, 0, mode, quantizationSNRs[i], rng)
	if err != nil {
		return nil, err
	}
	var rec quantizationRecord
	for wi, w := range quantizationWidths {
		for p := 0; p < scaled(f.cfg.Packets, f.cfg.Scale); p++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// The genie mask makes detection (and thus subcarrier
			// selection) irrelevant here, so the paper's fixed mid-band
			// control set keeps every cell comparable.
			r, err := runCoSTrial(scr, ch, 0, actual, cosTrialConfig{
				mode: mode, psduLen: 1024, silences: 12, ctrlSCs: fig10CtrlSCs,
				genieMask: true, // isolate LLR width from detection noise
				llrBits:   w,
			}, rng)
			if err != nil {
				continue
			}
			if r.dataOK {
				rec.OK[wi]++
			}
		}
	}
	return json.Marshal(rec)
}

func (f ablationQuantizationTasks) Assemble(recs []json.RawMessage) (*Result, error) {
	pts, err := decodeRecords[quantizationRecord](recs)
	if err != nil {
		return nil, err
	}
	packets := float64(scaled(f.cfg.Packets, f.cfg.Scale))
	res := &Result{
		ID:     "ablation-quantization",
		Title:  "Fixed-point LLR width vs PRR with CoS active (24 Mb/s)",
		XLabel: "measured SNR (dB)",
		YLabel: "packet reception rate",
	}
	for wi, w := range quantizationWidths {
		name := "float"
		if w != 0 {
			name = strconv.Itoa(w) + "-bit"
		}
		s := Series{Name: name}
		for si, snr := range quantizationSNRs {
			s.X = append(s.X, snr)
			s.Y = append(s.Y, float64(pts[si].OK[wi])/packets)
		}
		res.Add(s)
	}
	res.Note("erasures survive quantization exactly (zero metric in any width); genie mask isolates LLR width from detection noise")
	return res, nil
}
