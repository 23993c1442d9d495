package main

import (
	"fmt"
	"math"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names and units (pinned by
// TestCatalogMatchesBenchmarkJSON).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every untraced run reports, whatever the
// workload: each workload defines its own unit operation (a Link.Send or
// a fleet figure pass; see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayer are the metrics every traced run reports: the workload's own
// layers from its traced pass, the other layers from a short traced pass
// of the workload that exercises them.
var perLayer = []metricDef{
	// Link node spans, timed around the standalone Transmitter, Channel
	// and Receiver calls.
	{"cos.send_us", "us"},
	{"cos.tx_encode_us", "us"},
	{"cos.channel_us", "us"},
	{"cos.rx_receive_us", "us"},
	{"cos.allocs_per_pkt", "count"},
	{"cos.alloc_bytes_per_pkt", "B"},
	{"runtime.gc_cpu_frac", "ratio"},
	// PHY replay, in transmit-then-receive chain order.
	{"bits.scramble_us", "us"},
	{"coding.encode_us", "us"},
	{"coding.interleave_us", "us"},
	{"modulation.map_us", "us"},
	{"ofdm.ifft_us", "us"},
	{"channel.apply_us", "us"},
	{"phy.frontend_us", "us"},
	{"icos.detect_us", "us"},
	{"modulation.demap_us", "us"},
	{"coding.deinterleave_us", "us"},
	{"coding.viterbi_us", "us"},
	{"bits.descramble_fcs_us", "us"},
	{"coding.viterbi_steps_per_pkt", "count"},
	{"coding.erased_frac", "ratio"},
	{"phy.layer_sum_ratio", "ratio"},
	// The paper's "free" claim: silence cost and delivery quality.
	{"icos.silences_per_pkt", "count"},
	{"icos.detect_fn_rate", "ratio"},
	{"icos.detect_fp_rate", "ratio"},
	{"quality.data_prr", "ratio"},
	{"quality.control_ok_rate", "ratio"},
	// The cos-serve backends and their HTTP client.
	{"client.submit_us", "us"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.notify_ms", "ms"},
	{"client.result_us", "us"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.cold_p50_ms", "ms"},
	{"serve.cache_hit_frac", "ratio"},
	{"serve.refused", "count"},
	{"serve.failed", "count"},
	{"serve.result_bytes_per_job", "B"},
	// Fleet coordinator and the experiments it regenerates.
	{"fleet.backend_run_ms", "ms"},
	{"fleet.wait_overhead_ms", "ms"},
	{"fleet.backend_busy_frac", "ratio"},
	{"fleet.tasks", "count"},
	{"fleet.retries", "count"},
	{"fleet.failovers", "count"},
	{"experiments.fig3_s", "s"},
	{"experiments.fig7_s", "s"},
	// The benchmark's own cost: traced minus untraced, over untraced, of
	// the workload's median operation time.
	{"bench.trace_overhead_frac", "ratio"},
}

// report is what a workload runner measured.
type report struct {
	attempted, failed int
	// correct is false when any output check failed (failed counts the
	// operations behind it) or a harness invariant broke.
	correct bool
	// e2e and layers hold metric values by name.
	e2e, layers map[string]float64
	// detail is printed as its own JSON line before the result: the
	// workload's own metric names (link_send_p50_ms, figure_s, ...),
	// sample counts, digests and check outcomes.
	detail map[string]any
}

func newReport() *report {
	return &report{correct: true, e2e: map[string]float64{}, layers: map[string]float64{}, detail: map[string]any{}}
}

// fail records n failed operations and marks the run incorrect.
func (r *report) fail(n int, why string) {
	if n <= 0 {
		return
	}
	r.failed += n
	r.correct = false
	r.detail["failure"] = why
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the final JSON object: the end-to-end catalog for an
// untraced run, the per-layer catalog for a traced one.
func (r *report) result(traced bool) (result, error) {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layers
	}
	out := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if out.Attempted < 1 {
		return out, fmt.Errorf("no operation completed")
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", d.name, v)
		}
		if !traced && v <= 0 {
			return out, fmt.Errorf("end-to-end metric %s is %v, want > 0", d.name, v)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}
