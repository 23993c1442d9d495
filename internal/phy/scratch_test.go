package phy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cos/internal/ofdm"
)

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// dirtyTx returns a transmit scratch left over from a longer packet at the
// lowest rate, so every buffer has spare capacity and stale content.
func dirtyTx(t *testing.T) *TxScratch {
	t.Helper()
	var s TxScratch
	psdu := make([]byte, 2000)
	for i := range psdu {
		psdu[i] = byte(i*7 + 3)
	}
	if _, err := BuildPacketInto(&s, TxConfig{Mode: Modes()[0]}, psdu); err != nil {
		t.Fatal(err)
	}
	return &s
}

// TestAllocatingFormsMatchInto is the scratch-reuse check for the PHY
// entry points: BuildPacket, Samples, ReconstructGrid and RunFrontEnd must
// return exactly what their Into forms return from dirty scratch, for every
// mode at PSDU sizes 0, 1 and 1500, and fail with the same error text;
// QuantizeMetrics likewise, across widths and erasure patterns.
func TestAllocatingFormsMatchInto(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var rxDirty RxScratch
	longSamples := func() []complex128 {
		pkt, err := BuildPacket(TxConfig{Mode: Modes()[0]}, make([]byte, 2000))
		if err != nil {
			t.Fatal(err)
		}
		out, err := pkt.Samples()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}()
	if _, err := RunFrontEndInto(&rxDirty, longSamples); err != nil {
		t.Fatal(err)
	}

	for _, m := range Modes() {
		for _, size := range []int{0, 1, 1500} {
			what := fmt.Sprintf("%v/%dB", m, size)
			psdu := make([]byte, size)
			rng.Read(psdu)
			cfg := TxConfig{Mode: m, ScramblerSeed: byte(size)}

			got, err := BuildPacket(cfg, psdu)
			fresh, errFresh := BuildPacketInto(nil, cfg, psdu)
			want, errInto := BuildPacketInto(dirtyTx(t), cfg, psdu)
			if err != nil || errFresh != nil || errInto != nil {
				t.Fatalf("%s: BuildPacket: %v; BuildPacketInto: %v, %v", what, err, errFresh, errInto)
			}
			if !reflect.DeepEqual(got, fresh) {
				t.Errorf("%s: BuildPacket differs from BuildPacketInto(nil)", what)
			}
			// From dirty scratch an empty PSDU is the scratch's non-nil
			// empty slice rather than nil; everything else is identical.
			if len(want.PSDU) == 0 && len(got.PSDU) == 0 {
				w := *want
				w.PSDU = got.PSDU
				want = &w
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: BuildPacket differs from BuildPacketInto(dirty)", what)
			}

			grid, err := ReconstructGrid(cfg, psdu)
			gridInto, errInto := ReconstructGridInto(dirtyTx(t), cfg, psdu)
			if !reflect.DeepEqual(grid, gridInto) || errText(err) != errText(errInto) {
				t.Errorf("%s: ReconstructGrid differs from ReconstructGridInto", what)
			}

			samples, err := got.Samples()
			stale := append([]complex128(nil), longSamples...)
			samplesInto, errInto := got.SamplesInto(stale[:7])
			if !reflect.DeepEqual(samples, samplesInto) || errText(err) != errText(errInto) {
				t.Errorf("%s: Samples differs from SamplesInto", what)
			}

			for i := range samples {
				samples[i] += complex(0.05*rng.NormFloat64(), 0.05*rng.NormFloat64())
			}
			fe, err := RunFrontEnd(samples)
			feAt, errAt := RunFrontEndAt(samples, 1)
			feInto, errInto := RunFrontEndInto(&rxDirty, samples)
			if err != nil || errAt != nil || errInto != nil {
				t.Fatalf("%s: front ends failed: %v, %v, %v", what, err, errAt, errInto)
			}
			if !reflect.DeepEqual(fe, feAt) || !reflect.DeepEqual(fe, feInto) {
				t.Errorf("%s: RunFrontEnd, RunFrontEndAt and RunFrontEndInto disagree", what)
			}
		}
	}

	// Error paths.
	bad := TxConfig{Mode: Mode{}}
	_, err := BuildPacket(bad, []byte{1})
	_, errInto := BuildPacketInto(dirtyTx(t), bad, []byte{1})
	if err == nil || errText(err) != errText(errInto) {
		t.Errorf("invalid mode: BuildPacket error %v, BuildPacketInto error %v", err, errInto)
	}
	_, err = ReconstructGrid(bad, []byte{1})
	_, errInto = ReconstructGridInto(dirtyTx(t), bad, []byte{1})
	if err == nil || errText(err) != errText(errInto) {
		t.Errorf("invalid mode: ReconstructGrid error %v, ReconstructGridInto error %v", err, errInto)
	}
	for name, samples := range map[string][]complex128{
		"nil":          nil,
		"preamble":     longSamples[:ofdm.PreambleLen],
		"ragged":       longSamples[:len(longSamples)-5],
		"short-symbol": longSamples[:ofdm.PreambleLen+ofdm.SymbolLen-1],
	} {
		fe, err := RunFrontEnd(samples)
		feInto, errInto := RunFrontEndInto(&rxDirty, samples)
		if fe != nil || feInto != nil || err == nil || errText(err) != errText(errInto) {
			t.Errorf("%s: RunFrontEnd = %v, %v; RunFrontEndInto = %v, %v", name, fe, err, feInto, errInto)
		}
	}

	// Quantization from scratch left dirty by a longer, unerased input.
	random := make([]float64, 4000)
	for i := range random {
		random[i] = 3 * rng.NormFloat64()
	}
	var quantDirty RxScratch
	if _, err := QuantizeMetricsInto(&quantDirty, random, 16, 0); err != nil {
		t.Fatal(err)
	}
	erased := append([]float64(nil), random[:600]...)
	for i := 0; i < len(erased); i += 3 {
		erased[i] = 0
	}
	for name, in := range map[string][]float64{
		"nil": nil, "one": random[:1], "all-erased": make([]float64, 96), "erased": erased, "random": random[:900],
	} {
		for _, bits := range []int{1, 2, 4, 5, 16, 17} {
			for _, clip := range []float64{0, 2.5} {
				got, err := QuantizeMetrics(in, bits, clip)
				want, errInto := QuantizeMetricsInto(&quantDirty, in, bits, clip)
				if !reflect.DeepEqual(got, want) || errText(err) != errText(errInto) {
					t.Errorf("%s bits %d clip %v: QuantizeMetrics = %v, %v; QuantizeMetricsInto = %v, %v", name, bits, clip, got, err, want, errInto)
				}
			}
		}
	}
}

// TestQuantizedDecodeSteadyStateAllocs: decoding with fixed-point LLRs on a
// reused scratch allocates nothing once the scratch has grown.
func TestQuantizedDecodeSteadyStateAllocs(t *testing.T) {
	m, err := ModeByRate(24)
	if err != nil {
		t.Fatal(err)
	}
	psdu := make([]byte, 1000)
	rand.New(rand.NewSource(17)).Read(psdu)
	pkt, err := BuildPacket(TxConfig{Mode: m}, psdu)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := pkt.Samples()
	if err != nil {
		t.Fatal(err)
	}
	var rx RxScratch
	fe, err := RunFrontEndInto(&rx, samples)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DecodeConfig{Mode: m, PSDULen: len(psdu), LLRBits: 5}
	if _, err := fe.DecodeInto(&rx, cfg); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if _, err := fe.DecodeInto(&rx, cfg); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("DecodeInto with 5-bit LLRs: %v allocs per decode, want 0", avg)
	}
}

// TestDecodeSteadyStateAllocs: decoding with the default configuration
// (full-precision metrics) on a reused scratch allocates nothing once the
// scratch has grown.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	m, err := ModeByRate(54)
	if err != nil {
		t.Fatal(err)
	}
	psdu := randPSDU(rand.New(rand.NewSource(24)), 1500)
	fe := noisyFrontEnd(t, m, psdu, 20, nil, 25)
	var rx RxScratch
	cfg := DecodeConfig{Mode: m, PSDULen: len(psdu)}
	if _, err := fe.DecodeInto(&rx, cfg); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if _, err := fe.DecodeInto(&rx, cfg); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("DecodeInto: %v allocs per decode, want 0", avg)
	}
}

// TestEntryPointMetricCounts pins that each entry point counts one packet
// build or one front-end run, whichever form the caller picked. It reads
// process-wide counters, so it must not run in parallel with other tests.
func TestEntryPointMetricCounts(t *testing.T) {
	cfg := TxConfig{Mode: Modes()[2]}
	psdu := []byte{1, 2, 3, 4, 5}
	pkt, err := BuildPacket(cfg, psdu)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := pkt.Samples()
	if err != nil {
		t.Fatal(err)
	}
	var tx TxScratch
	var rx RxScratch
	builds := map[string]func() error{
		"BuildPacket":         func() error { _, err := BuildPacket(cfg, psdu); return err },
		"BuildPacketInto":     func() error { _, err := BuildPacketInto(&tx, cfg, psdu); return err },
		"ReconstructGrid":     func() error { _, err := ReconstructGrid(cfg, psdu); return err },
		"ReconstructGridInto": func() error { _, err := ReconstructGridInto(&tx, cfg, psdu); return err },
	}
	frontEnds := map[string]func() error{
		"RunFrontEnd":     func() error { _, err := RunFrontEnd(samples); return err },
		"RunFrontEndAt":   func() error { _, err := RunFrontEndAt(samples, 1); return err },
		"RunFrontEndInto": func() error { _, err := RunFrontEndInto(&rx, samples); return err },
	}
	for _, c := range []struct {
		counter string
		value   func() uint64
		calls   map[string]func() error
	}{
		{"phy_tx_packets_total", mTxPackets.Value, builds},
		{"phy_rx_frontends_total", mRxFrontEnds.Value, frontEnds},
	} {
		for name, call := range c.calls {
			before := c.value()
			if err := call(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if d := c.value() - before; d != 1 {
				t.Errorf("%s raised %s by %d, want 1", name, c.counter, d)
			}
		}
	}
}
