package cos_test

// Head-to-head scenario gate: the paper's CoS silence embedding against
// the WiPad-style OFDM-padding embedding on the same indoor channel, and
// the indoor TDL channel against the hybrid BSC/PEC outdoor channel under
// the same embedding.

import (
	"math/rand"
	"testing"
	"time"

	"cos"
	"cos/internal/benchkit"
)

// TestScenarioWorlds drives the same fixed-seed send schedule through four
// worlds: the default CoS-silence/indoor-TDL pairing, the OFDM-padding
// embedding on the same indoor channel, and the CoS-silence embedding over
// the hybrid BSC/PEC outdoor channel at two erasure settings. Every world
// must deliver packets, the padding embedding must spend no silences and
// the silence embeddings must spend some. It runs 40 packets per world in
// `go test ./...` and under the race detector in `make ci`; with
// -benchkit.dir it runs 400 and writes BENCH_scenario.json.
func TestScenarioWorlds(t *testing.T) {
	packets := 40
	if benchkit.Dir() != "" {
		packets = 400
	}
	const ctrlBits, k = 16, 4
	const snr = 22.0

	worlds := []struct {
		name    string
		padding bool // the OFDM-padding embedding; the others embed by silence
		opts    []cos.Option
	}{
		{"default", false,
			[]cos.Option{cos.WithSeed(41), cos.WithSNR(snr)}},
		{"ofdm-padding", true,
			[]cos.Option{cos.WithScenario("ofdm-padding"), cos.WithSeed(41), cos.WithSNR(snr)}},
		{"hybrid-bscpec", false,
			[]cos.Option{cos.WithScenario("hybrid-bscpec"), cos.WithSeed(41), cos.WithSNR(snr)}},
		{"hybrid-bscpec:0.3,0.1,25", false,
			[]cos.Option{cos.WithScenario("hybrid-bscpec", 0.3, 0.1, 25), cos.WithSeed(41), cos.WithSNR(snr)}},
	}

	r := benchkit.Report{Methodology: "Each world runs the same fixed-seed 256-byte send schedule " +
		"(16 control bits/packet, k=4) through a fresh Link at 22 dB SNR. data_ok_rate is the " +
		"frame-check pass rate, control_ok_rate the fraction of packets whose extracted control " +
		"bits prefix-match the sent bits, avg_silences the silence-symbol budget actually spent. " +
		"The embedding axis compares cos-silence vs ofdm-padding on the indoor TDL channel; the " +
		"channel axis compares indoor TDL vs the hybrid BSC/PEC outdoor channel (Chen & Leith) " +
		"under cos-silence at the preset and a harsher q=0.3,p=0.1 operating point. Timings are " +
		"wall clock on a single goroutine. Row names are <world>.<metric>."}
	r.Row("packets_per_world", "count", float64(packets))
	for _, w := range worlds {
		link, err := cos.NewLink(w.opts...)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		rng := rand.New(rand.NewSource(977))
		var dataOK, ctrlOK, ctrlSent, silences int
		start := time.Now()
		for i := 0; i < packets; i++ {
			data := make([]byte, 256)
			rng.Read(data)
			maxBits, err := link.MaxControlBits(len(data))
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			n := ctrlBits
			if n > maxBits {
				n = maxBits / k * k
			}
			ctrl := make([]byte, n)
			for j := range ctrl {
				ctrl[j] = byte(rng.Intn(2))
			}
			ex, err := link.Send(data, ctrl)
			if err != nil {
				t.Fatalf("%s packet %d: %v", w.name, i, err)
			}
			if ex.DataOK {
				dataOK++
			}
			if ex.ControlOK {
				ctrlOK++
			}
			ctrlSent += len(ex.ControlSent)
			silences += ex.SilencesInserted
		}
		sec := time.Since(start).Seconds()
		per := func(n int) float64 { return float64(n) / float64(packets) }
		r.Row(w.name+".data_ok_rate", "ratio", per(dataOK))
		r.Row(w.name+".control_ok_rate", "ratio", per(ctrlOK))
		r.Row(w.name+".avg_control_bits", "count", per(ctrlSent))
		r.Row(w.name+".avg_silences", "count", per(silences))
		r.Row(w.name+".packets_per_s", "1/s", float64(packets)/sec)

		// Sanity floors rather than cross-world races.
		r.Check(w.name+".delivers", "data_ok_rate > 0", dataOK > 0)
		if w.padding {
			r.AtMost(w.name+".silences", "avg_silences <= bound: padding spends none", 0, per(silences))
		} else {
			r.Check(w.name+".silences", "avg_silences > 0: the CoS embedding engages", silences > 0)
		}
	}
	r.Finish(t, "scenario")
}
