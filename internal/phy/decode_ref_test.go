package phy

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cos/internal/bits"
	"cos/internal/channel"
	"cos/internal/coding"
	"cos/internal/dsp"
	"cos/internal/ofdm"
)

// decodeRef is the unfused decode the single demap pass replaced, kept as a
// test-only oracle: it demaps each symbol into a transmission-order buffer,
// deinterleaves it, depunctures the whole packet, then decodes and
// descrambles exactly as the receiver does. It returns the depunctured
// metrics (before any LLR quantization) along with the result.
func decodeRef(fe *FrontEnd, cfg DecodeConfig) (*DecodeResult, []float64, error) {
	m := cfg.Mode
	il, err := coding.CachedInterleaver(m.NCBPS(), m.NBPSC())
	if err != nil {
		return nil, nil, err
	}
	nbpsc, ncbps := m.NBPSC(), m.NCBPS()
	metrics := make([]float64, fe.NumSymbols()*ncbps)
	hard := make([]byte, fe.NumSymbols()*ncbps)
	symMetrics := make([]float64, ncbps)
	for sym := 0; sym < fe.NumSymbols(); sym++ {
		eq, err := fe.Equalized(sym)
		if err != nil {
			return nil, nil, err
		}
		for d := 0; d < ofdm.NumData; d++ {
			dst := symMetrics[d*nbpsc : (d+1)*nbpsc]
			if cfg.Erased != nil && cfg.Erased[sym][d] {
				clear(dst)
				continue
			}
			h, err := fe.ChannelAt(d)
			if err != nil {
				return nil, nil, err
			}
			hMag := dsp.MagSq(h)
			postEqNoise := 1e9
			if hMag > 1e-12 {
				postEqNoise = fe.NoiseVar / hMag
			}
			if err := m.Modulation.SoftDemapInto(dst, eq[d], postEqNoise); err != nil {
				return nil, nil, err
			}
		}
		base := sym * ncbps
		for i, v := range symMetrics {
			if v > 0 {
				hard[base+i] = 1
			}
		}
		if _, err := coding.DeinterleaveInto(il, metrics[base:base+ncbps], symMetrics); err != nil {
			return nil, nil, err
		}
	}
	full, err := coding.DepunctureMetrics(metrics, m.CodeRate)
	if err != nil {
		return nil, nil, err
	}
	in := full
	if cfg.LLRBits != 0 {
		if in, err = QuantizeMetrics(full, cfg.LLRBits, 0); err != nil {
			return nil, nil, err
		}
	}
	scrambled, err := (&coding.Viterbi{Terminated: true}).Decode(in)
	if err != nil {
		return nil, nil, err
	}
	seed := cfg.ScramblerSeed
	if seed == 0 {
		seed = DefaultScramblerSeed
	}
	descr := bits.NewScrambler(seed).Scramble(scrambled)
	psdu, err := bits.ToBytes(descr[serviceBits : serviceBits+8*cfg.PSDULen])
	if err != nil {
		return nil, nil, err
	}
	return &DecodeResult{PSDU: psdu, DataBits: descr, HardCodedBits: hard}, full, nil
}

// noisyFrontEnd sends psdu through the position-B channel at snrDB, with
// the grid positions marked in erased silenced, and returns the front end.
func noisyFrontEnd(t testing.TB, m Mode, psdu []byte, snrDB float64, erased [][]bool, seed int64) *FrontEnd {
	t.Helper()
	tx, err := BuildPacket(TxConfig{Mode: m}, psdu)
	if err != nil {
		t.Fatal(err)
	}
	for s, row := range erased {
		for d, e := range row {
			if e {
				if err := tx.Grid.Set(s, d, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	samples, err := tx.Samples()
	if err != nil {
		t.Fatal(err)
	}
	ch, err := channel.PositionB.New(false)
	if err != nil {
		t.Fatal(err)
	}
	nv, err := NoiseVarForActualSNR(ch.FrequencyResponse(0), snrDB)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := RunFrontEnd(ch.Apply(samples, 0, nv, rand.New(rand.NewSource(seed))))
	if err != nil {
		t.Fatal(err)
	}
	return fe
}

// randomErasures marks about frac of a packet's positions erased.
func randomErasures(rng *rand.Rand, m Mode, psduLen int, frac float64) [][]bool {
	out := make([][]bool, m.SymbolsForPSDU(psduLen))
	for s := range out {
		out[s] = make([]bool, ofdm.NumData)
		for d := range out[s] {
			out[s][d] = rng.Float64() < frac
		}
	}
	return out
}

// sameDecode describes the first difference between two decode results.
func sameDecode(got, want *DecodeResult) string {
	switch {
	case !bytes.Equal(got.PSDU, want.PSDU):
		return "PSDU differs"
	case !bytes.Equal(got.DataBits, want.DataBits):
		return "DataBits differ"
	case !bytes.Equal(got.HardCodedBits, want.HardCodedBits):
		return "HardCodedBits differ"
	}
	return ""
}

// TestDecodeMatchesUnfusedReference pins the fused demap, deinterleave and
// depuncture pass to the unfused oracle for every mode: the decoder-input
// metrics under math.Float64bits, and the PSDU, data bits and hard coded
// bits byte for byte, with and without erasures and LLR quantization, at an
// SNR low enough that some packets decode wrongly.
func TestDecodeMatchesUnfusedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var rx RxScratch
	for _, m := range Modes() {
		for _, c := range []struct {
			snrDB   float64
			erase   float64
			llrBits int
		}{{25, 0, 0}, {12, 0.05, 0}, {8, 0.1, 5}} {
			psdu := randPSDU(rng, 1+rng.Intn(1500))
			var erased [][]bool
			if c.erase > 0 {
				erased = randomErasures(rng, m, len(psdu), c.erase)
			}
			fe := noisyFrontEnd(t, m, psdu, c.snrDB, erased, rng.Int63())
			cfg := DecodeConfig{Mode: m, PSDULen: len(psdu), Erased: erased, LLRBits: c.llrBits}
			what := fmt.Sprintf("%v at %v dB, %v erased, %d-bit LLRs", m, c.snrDB, c.erase, c.llrBits)
			want, wantFull, err := decodeRef(fe, cfg)
			if err != nil {
				t.Fatalf("%s: oracle: %v", what, err)
			}
			got, err := fe.DecodeInto(&rx, cfg)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if diff := sameDecode(got, want); diff != "" {
				t.Fatalf("%s: %s from the unfused oracle", what, diff)
			}
			if len(rx.full) != len(wantFull) {
				t.Fatalf("%s: %d decoder-input metrics, oracle %d", what, len(rx.full), len(wantFull))
			}
			for i := range wantFull {
				if math.Float64bits(rx.full[i]) != math.Float64bits(wantFull[i]) {
					t.Fatalf("%s: metric %d = %v, oracle %v", what, i, rx.full[i], wantFull[i])
				}
			}
		}
	}
}

// TestDecodeScratchReuseAcrossModes decodes 64-QAM 3/4, then BPSK 1/2, then
// 64-QAM 2/3 on one dirty scratch: each result must equal a fresh Decode,
// so a position map or buffer left over from the previous mode is caught.
func TestDecodeScratchReuseAcrossModes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var rx RxScratch
	for _, rate := range []int{54, 6, 48, 54} {
		m, err := ModeByRate(rate)
		if err != nil {
			t.Fatal(err)
		}
		psdu := randPSDU(rng, 700)
		erased := randomErasures(rng, m, len(psdu), 0.03)
		fe := noisyFrontEnd(t, m, psdu, 18, erased, rng.Int63())
		cfg := DecodeConfig{Mode: m, PSDULen: len(psdu), Erased: erased}
		want, err := fe.Decode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fe.DecodeInto(&rx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameDecode(got, want); diff != "" {
			t.Errorf("%v after a decode at another mode: %s from a fresh Decode", m, diff)
		}
	}
}

// BenchmarkDecodeInto times the receiver's decode of one 1500-byte 54 Mb/s
// packet at 20 dB on a reused scratch: demap, deinterleave, depuncture,
// Viterbi and descramble.
func BenchmarkDecodeInto(b *testing.B) {
	m, err := ModeByRate(54)
	if err != nil {
		b.Fatal(err)
	}
	psdu := randPSDU(rand.New(rand.NewSource(24)), 1500)
	fe := noisyFrontEnd(b, m, psdu, 20, nil, 25)
	var rx RxScratch
	cfg := DecodeConfig{Mode: m, PSDULen: len(psdu)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fe.DecodeInto(&rx, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
