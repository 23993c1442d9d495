package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"cos"
	"cos/internal/bits"
	"cos/internal/channel"
	"cos/internal/coding"
	icos "cos/internal/cos"
	"cos/internal/dsp"
	"cos/internal/ofdm"
	"cos/internal/phy"
)

// serviceBits is the 802.11a SERVICE field that precedes the PSDU in the
// scrambled data bits.
const serviceBits = 16

// The PHY replay's layer sum should explain the node spans it replays:
// layerSumLow..layerSumHigh is the stated tolerance for
// phy.layer_sum_ratio. The replay leaves out the receiver's feedback
// (grid reconstruction and EVM) and the node glue, so the ratio sits
// somewhat below 1.
const (
	layerSumLow  = 0.75
	layerSumHigh = 1.25
)

// phyLayers are the replayed layers in chain order; their medians add up
// to phy.layer_sum_ratio's numerator.
var phyLayers = []string{
	"bits.scramble_us", "coding.encode_us", "coding.interleave_us", "modulation.map_us",
	"ofdm.ifft_us", "channel.apply_us", "phy.frontend_us", "icos.detect_us",
	"modulation.demap_us", "coding.deinterleave_us", "coding.viterbi_us", "bits.descramble_fcs_us",
}

// replayer re-runs a captured frame through the PHY one public call at a
// time, timing each layer and checking each layer's output against what
// the pipeline nodes produced.
type replayer struct {
	tdl  *channel.TDL
	rng  *rand.Rand
	taps []complex128

	dataBits, scrambled, coded, punctured, interleaved []byte
	points, samples, chOut, eq                         []complex128
	rx, ref                                            phy.RxScratch
	mask                                               [][]bool
	symMetrics, metrics, full                          []float64
	vit                                                coding.ViterbiScratch
	descr, psdu                                        []byte

	times      map[string][]float64
	steps      []float64
	erasedFrac []float64
	replayed   int
	// mismatches counts replayed frames whose layer outputs differ from
	// the nodes' (transmit side) or whose PSDU differs from
	// FrontEnd.DecodeInto's or the receiver's verdict (receive side).
	mismatches int
}

func newReplayer(seed int64) (*replayer, error) {
	tdl, err := channel.PositionB.New(false)
	if err != nil {
		return nil, err
	}
	return &replayer{tdl: tdl, rng: rand.New(rand.NewSource(seed)), times: map[string][]float64{}}, nil
}

// lap records the time since *t0 under layer and restarts the clock.
func (r *replayer) lap(layer string, t0 *time.Time) {
	now := time.Now()
	r.times[layer] = append(r.times[layer], us(now.Sub(*t0)))
	*t0 = now
}

// replay re-runs frame f (sent at simulation time now) whose received
// samples were rxSamples and whose receiver verdict was dataOK/data.
func (r *replayer) replay(f *cos.Frame, rxSamples []complex128, now float64, dataOK bool, data []byte) error {
	r.replayed++
	ok, err := r.replayTx(f, now)
	if err != nil {
		return err
	}
	okRx, err := r.replayRx(f, rxSamples, dataOK, data)
	if err != nil {
		return err
	}
	if !ok || !okRx {
		r.mismatches++
	}
	return nil
}

func (r *replayer) replayTx(f *cos.Frame, now float64) (bool, error) {
	pkt, mode := f.Packet, f.Mode
	psdu := pkt.PSDU
	nSym := mode.SymbolsForPSDU(len(psdu))
	ok := true

	t0 := time.Now()
	r.dataBits = slices.Grow(r.dataBits[:0], nSym*mode.NDBPS())[:nSym*mode.NDBPS()]
	clear(r.dataBits)
	bits.FromBytesInto(r.dataBits[serviceBits:serviceBits+8*len(psdu)], psdu)
	r.scrambled = bits.NewScrambler(phy.DefaultScramblerSeed).ScrambleInto(r.scrambled, r.dataBits)
	clear(r.scrambled[serviceBits+8*len(psdu):]) // tail and pad are zeroed after scrambling
	r.lap("bits.scramble_us", &t0)
	ok = ok && bytes.Equal(r.scrambled, pkt.ScrambledBits)

	t0 = time.Now()
	var err error
	if r.coded, err = coding.ConvEncodeInto(r.coded, r.scrambled); err != nil {
		return false, err
	}
	if r.punctured, err = coding.PunctureInto(r.punctured, r.coded, mode.CodeRate); err != nil {
		return false, err
	}
	r.lap("coding.encode_us", &t0)

	il, err := coding.CachedInterleaver(mode.NCBPS(), mode.NBPSC())
	if err != nil {
		return false, err
	}
	if r.interleaved, err = coding.InterleaveInto(il, r.interleaved, r.punctured); err != nil {
		return false, err
	}
	r.lap("coding.interleave_us", &t0)
	ok = ok && bytes.Equal(r.interleaved, pkt.CodedBits)

	t0 = time.Now()
	if r.points, err = mode.Modulation.MapBitsInto(r.points, r.interleaved); err != nil {
		return false, err
	}
	r.lap("modulation.map_us", &t0)
	// The captured grid carries the embedded silences; every other point
	// must be the mapper's.
	for s := 0; s < nSym; s++ {
		row, err := pkt.Grid.Symbol(s)
		if err != nil {
			return false, err
		}
		for d, v := range row {
			silenced := f.TruthMask != nil && f.TruthMask[s][d]
			if !silenced && v != r.points[s*ofdm.NumData+d] {
				ok = false
			}
		}
	}

	t0 = time.Now()
	if r.samples, err = pkt.Grid.ModulateInto(1, r.samples); err != nil {
		return false, err
	}
	r.lap("ofdm.ifft_us", &t0)
	ok = ok && slices.Equal(r.samples, f.Samples[ofdm.PreambleLen:])

	// The channel draws fresh noise, so only its cost is replayed.
	t0 = time.Now()
	r.taps = r.tdl.TapsInto(r.taps, now)
	noiseVar, err := phy.NoiseVarForActualSNR(channel.FrequencyResponseFrom(r.taps), linkSNRdB)
	if err != nil {
		return false, err
	}
	r.chOut = channel.ApplyTo(r.chOut, f.Samples, r.taps, noiseVar, r.rng)
	r.lap("channel.apply_us", &t0)
	return ok, nil
}

func (r *replayer) replayRx(f *cos.Frame, rxSamples []complex128, dataOK bool, data []byte) (bool, error) {
	mode := f.Mode
	t0 := time.Now()
	fe, err := phy.RunFrontEndInto(&r.rx, rxSamples)
	if err != nil {
		return false, err
	}
	r.lap("phy.frontend_us", &t0)

	var mask [][]bool
	if len(f.ControlBits) > 0 {
		det := icos.Detector{Scheme: mode.Modulation}
		if r.mask, err = det.DetectMaskInto(r.mask, fe, f.ControlSubcarriers); err != nil {
			return false, err
		}
		mask = r.mask
	}
	r.lap("icos.detect_us", &t0)

	nSym, ncbps, nbpsc := fe.NumSymbols(), mode.NCBPS(), mode.NBPSC()
	r.symMetrics = slices.Grow(r.symMetrics[:0], nSym*ncbps)[:nSym*ncbps]
	erased := 0
	for s := 0; s < nSym; s++ {
		if r.eq, err = fe.EqualizedInto(r.eq, s); err != nil {
			return false, err
		}
		for d := 0; d < ofdm.NumData; d++ {
			dst := r.symMetrics[s*ncbps+d*nbpsc : s*ncbps+(d+1)*nbpsc]
			if mask != nil && mask[s][d] {
				clear(dst)
				erased++
				continue
			}
			h, err := fe.ChannelAt(d)
			if err != nil {
				return false, err
			}
			postEqNoise := 1e9 // unusable subcarrier: metrics ~ 0
			if hMag := dsp.MagSq(h); hMag > 1e-12 {
				postEqNoise = fe.NoiseVar / hMag
			}
			if err := mode.Modulation.SoftDemapInto(dst, r.eq[d], postEqNoise); err != nil {
				return false, err
			}
		}
	}
	r.lap("modulation.demap_us", &t0)

	il, err := coding.CachedInterleaver(ncbps, nbpsc)
	if err != nil {
		return false, err
	}
	r.metrics = slices.Grow(r.metrics[:0], nSym*ncbps)[:nSym*ncbps]
	for s := 0; s < nSym; s++ {
		if _, err := coding.DeinterleaveInto(il, r.metrics[s*ncbps:(s+1)*ncbps], r.symMetrics[s*ncbps:(s+1)*ncbps]); err != nil {
			return false, err
		}
	}
	if r.full, err = coding.DepunctureMetricsInto(r.full, r.metrics, mode.CodeRate); err != nil {
		return false, err
	}
	r.lap("coding.deinterleave_us", &t0)

	dec := coding.Viterbi{Terminated: true}
	scrambled, err := dec.DecodeInto(&r.vit, r.full)
	if err != nil {
		return false, err
	}
	r.lap("coding.viterbi_us", &t0)

	r.descr = bits.NewScrambler(phy.DefaultScramblerSeed).ScrambleInto(r.descr, scrambled)
	if r.psdu, err = bits.ToBytesInto(r.psdu, r.descr[serviceBits:serviceBits+8*f.PSDULen]); err != nil {
		return false, err
	}
	payload, fcsOK := bits.CheckFCS(r.psdu)
	r.lap("bits.descramble_fcs_us", &t0)

	r.steps = append(r.steps, float64(len(r.full)/2))
	r.erasedFrac = append(r.erasedFrac, float64(erased)/float64(nSym*ofdm.NumData))

	// The layer-by-layer chain must decode exactly what the PHY's own
	// decoder does on the same front end and mask, and agree with the
	// receiver node's verdict.
	want, err := fe.DecodeInto(&r.ref, phy.DecodeConfig{Mode: mode, PSDULen: f.PSDULen, Erased: mask})
	if err != nil {
		return false, fmt.Errorf("FrontEnd.DecodeInto: %w", err)
	}
	ok := bytes.Equal(r.psdu, want.PSDU) && fcsOK == dataOK && (!fcsOK || bytes.Equal(payload, data))
	return ok, nil
}

// layers writes the replay's per-layer medians and counts.
func (r *replayer) layers(out map[string]float64) {
	for _, name := range phyLayers {
		out[name] = median(r.times[name])
	}
	out["coding.viterbi_steps_per_pkt"] = mean(r.steps)
	out["coding.erased_frac"] = mean(r.erasedFrac)
}

// layerSum is the sum of the replayed layers' medians, in microseconds.
func (r *replayer) layerSum() float64 {
	var s float64
	for _, name := range phyLayers {
		s += median(r.times[name])
	}
	return s
}
