package cos_test

// Benchmarks, one per figure of the paper's evaluation plus the ablations
// and the core PHY primitives. Each figure benchmark regenerates that
// figure's data series at a reduced scale (benchScale); run
// cmd/cos-figures at scale 1 for publication-quality sweeps.
//
//	go test -bench=. -benchmem

import (
	"context"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"time"

	"cos"
	"cos/internal/benchkit"
	"cos/internal/channel"
	"cos/internal/coding"
	"cos/internal/dsp"
	"cos/internal/experiments"
	"cos/internal/modulation"
	"cos/internal/obs"
	"cos/internal/phy"
)

// benchScale shrinks experiment sample sizes so the full benchmark suite
// completes in minutes; shapes (who wins, where crossovers fall) persist.
const benchScale = 0.05

func runFigureWorkers(b *testing.B, id string, workers int) {
	b.Helper()
	opts := experiments.RunOptions{Scale: benchScale, Workers: workers}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(context.Background(), id, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) == 0 {
			b.Fatalf("%s: empty result", id)
		}
	}
}

func runFigure(b *testing.B, id string) {
	runFigureWorkers(b, id, 1)
}

// --- Parallel engine -----------------------------------------------------

// benchmarkParallel contrasts the serial fast path (workers=1) against the
// worker pool at 2, 4 and GOMAXPROCS workers on the same figure; the output
// is bit-identical across all of them (TestParallelMatchesSerial* assert
// this), so the benchmark isolates pure scheduling overhead/speedup.
func benchmarkParallel(b *testing.B, id string) {
	counts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	for _, w := range counts {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) { runFigureWorkers(b, id, w) })
	}
}

func BenchmarkParallelFig3(b *testing.B)   { benchmarkParallel(b, "fig3") }
func BenchmarkParallelFig10c(b *testing.B) { benchmarkParallel(b, "fig10c") }
func BenchmarkParallelFig2(b *testing.B)   { benchmarkParallel(b, "fig2") }

// --- Paper figures -------------------------------------------------------

func BenchmarkFig2SNRGap(b *testing.B)         { runFigure(b, "fig2") }
func BenchmarkFig3DecoderBER(b *testing.B)     { runFigure(b, "fig3") }
func BenchmarkFig5EVM(b *testing.B)            { runFigure(b, "fig5") }
func BenchmarkFig6ErrorPattern(b *testing.B)   { runFigure(b, "fig6") }
func BenchmarkFig7Temporal(b *testing.B)       { runFigure(b, "fig7") }
func BenchmarkFig9Capacity(b *testing.B)       { runFigure(b, "fig9") }
func BenchmarkFig10aMagnitudes(b *testing.B)   { runFigure(b, "fig10a") }
func BenchmarkFig10bThreshold(b *testing.B)    { runFigure(b, "fig10b") }
func BenchmarkFig10cAccuracy(b *testing.B)     { runFigure(b, "fig10c") }
func BenchmarkFig10dInterference(b *testing.B) { runFigure(b, "fig10d") }

// --- Ablations -----------------------------------------------------------

func BenchmarkAblationEVD(b *testing.B)       { runFigure(b, "ablation-evd") }
func BenchmarkAblationPlacement(b *testing.B) { runFigure(b, "ablation-placement") }
func BenchmarkAblationThreshold(b *testing.B) { runFigure(b, "ablation-threshold") }
func BenchmarkControlAccuracy(b *testing.B)   { runFigure(b, "accuracy") }

// --- Core primitives -----------------------------------------------------

func BenchmarkFFT64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 64)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dsp.FFTInPlace(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViterbiDecode1KB(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 8192+6)
	for i := range data[:8192] {
		data[i] = byte(rng.Intn(2))
	}
	coded, err := coding.ConvEncode(data)
	if err != nil {
		b.Fatal(err)
	}
	metrics, err := coding.HardMetrics(coded, 1)
	if err != nil {
		b.Fatal(err)
	}
	dec := coding.Viterbi{Terminated: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(metrics); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViterbiDecodeInto1KBSoft is the decoder as the PHY runs it: a
// 1 KB terminated block of noisy soft metrics with ~10% erasures (silence
// symbols and punctured positions), decoded through one reused scratch.
func BenchmarkViterbiDecodeInto1KBSoft(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 8192+6)
	for i := range data[:8192] {
		data[i] = byte(rng.Intn(2))
	}
	coded, err := coding.ConvEncode(data)
	if err != nil {
		b.Fatal(err)
	}
	metrics := make([]float64, len(coded))
	for i, c := range coded {
		metrics[i] = float64(2*int(c)-1) + 0.8*rng.NormFloat64()
		if rng.Float64() < 0.1 {
			metrics[i] = 0
		}
	}
	dec := coding.Viterbi{Terminated: true}
	var scratch coding.ViterbiScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.DecodeInto(&scratch, metrics); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSoftDemap64QAM(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]complex128, 48)
	for i := range pts {
		pts[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, y := range pts {
			if _, err := modulation.QAM64.SoftDemap(y, 0.05); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTxChain1KB(b *testing.B) {
	mode, err := phy.ModeByRate(24)
	if err != nil {
		b.Fatal(err)
	}
	psdu := make([]byte, 1024)
	rand.New(rand.NewSource(4)).Read(psdu)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt, err := phy.BuildPacket(phy.TxConfig{Mode: mode}, psdu)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pkt.Samples(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRxChain1KB(b *testing.B) {
	mode, err := phy.ModeByRate(24)
	if err != nil {
		b.Fatal(err)
	}
	psdu := make([]byte, 1024)
	rng := rand.New(rand.NewSource(5))
	rng.Read(psdu)
	pkt, err := phy.BuildPacket(phy.TxConfig{Mode: mode}, psdu)
	if err != nil {
		b.Fatal(err)
	}
	samples, err := pkt.Samples()
	if err != nil {
		b.Fatal(err)
	}
	ch, err := channel.PositionB.New(false)
	if err != nil {
		b.Fatal(err)
	}
	h := ch.FrequencyResponse(0)
	nv, err := phy.NoiseVarForActualSNR(h, 20)
	if err != nil {
		b.Fatal(err)
	}
	rx := ch.Apply(samples, 0, nv, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fe, err := phy.RunFrontEnd(rx)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fe.Decode(phy.DecodeConfig{Mode: mode, PSDULen: len(psdu)}); err != nil {
			b.Fatal(err)
		}
	}
}

func runLinkExchange(b *testing.B, opts ...cos.Option) {
	b.Helper()
	link, err := cos.NewLink(append([]cos.Option{cos.WithSNR(20), cos.WithSeed(6)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	if err := benchkit.Sends(link.MaxControlBits, link.Send, b.N, b.ResetTimer); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkLinkExchange(b *testing.B) { runLinkExchange(b) }

// BenchmarkLinkExchangeInstrumented adds the heaviest observability setup a
// session can have — an isolated registry plus an attached observer — on
// top of the always-on pipeline metrics. Comparing against
// BenchmarkLinkExchange bounds the marginal cost of the hook itself; the
// link-observer gate in BENCH_events.json holds it within 2%.
func BenchmarkLinkExchangeInstrumented(b *testing.B) {
	var observed int
	runLinkExchange(b,
		cos.WithMetricsRegistry(cos.NewMetricsRegistry()),
		cos.WithObserver(func(ex *cos.Exchange) { observed++ }),
	)
	if observed == 0 {
		b.Fatal("observer never fired")
	}
}

// BenchmarkLinkExchangeProbed64 runs the exchange with the flight
// recorder's sampled probe at the documented operating point (every 64th
// packet); the amortized overhead against BenchmarkLinkExchange is what
// the BENCH_trace.json budget bounds.
func BenchmarkLinkExchangeProbed64(b *testing.B) {
	runLinkExchange(b, cos.WithProbe(64, nil))
}

// BenchmarkLinkExchangeProbed1 probes every packet — the worst case, for
// sizing what a probe itself costs (it re-demodulates the whole packet).
func BenchmarkLinkExchangeProbed1(b *testing.B) {
	runLinkExchange(b, cos.WithProbe(1, nil))
}

// TestWriteBenchTraceReport is the flight recorder's overhead gate
// (BENCH_trace.json): sampled probes every 64th packet must stay within 2%
// of the span-only pipeline, min of 3 rotated sessions per side. Probing
// every packet is measured alongside to size what one probe costs.
func TestWriteBenchTraceReport(t *testing.T) {
	benchkit.Require(t)
	const packets = 400
	session := func(opts ...cos.Option) func() float64 {
		return func() float64 {
			link, err := cos.NewLink(append([]cos.Option{cos.WithSNR(20), cos.WithSeed(6)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			var start time.Time
			if err := benchkit.Sends(link.MaxControlBits, link.Send, packets, func() { start = time.Now() }); err != nil {
				t.Fatal(err)
			}
			return time.Since(start).Seconds()
		}
	}
	st := benchkit.Interleave(3, session(), session(cos.WithProbe(64, nil)), session(cos.WithProbe(1, nil)))
	base, probed64, probed1 := st[0].Min, st[1].Min, st[2].Min

	r := benchkit.Report{Methodology: "Each configuration sends 400 packets (24 control bits, " +
		"adaptive budget) after one warm-up packet on a fresh seed-6 link at 20 dB: the " +
		"BenchmarkLinkExchange loop. base carries the always-on span layer; probed64 adds " +
		"cos.WithProbe(64, nil), the documented sampling floor; probed1 probes every packet " +
		"to size the raw probe cost (informational: every probe re-demodulates the packet). " +
		"Three rounds, rotating which configuration runs first; each side's statistic is " +
		"its minimum wall time."}
	r.Row("base_s", "s", base)
	r.Row("probed64_s", "s", probed64)
	r.Row("probed1_s", "s", probed1)
	r.Row("probed1_ratio", "ratio", probed1/base)
	r.AtMost("probed64_ratio", "min-of-3 probed64_s / min-of-3 base_s", 1.02, probed64/base)
	r.Finish(t, "trace")
}

// BenchmarkObsCounterHot measures the per-update cost of the metric
// primitive the pipeline leans on hardest (Counter.Inc under contention).
func BenchmarkObsCounterHot(b *testing.B) {
	c := obs.NewRegistry().Counter("bench_hot_total", "benchmark counter")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkAblationQuantization(b *testing.B) { runFigure(b, "ablation-quantization") }
