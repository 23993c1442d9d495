package coding

import (
	"fmt"
	"math"
	"time"

	"cos/internal/obs"
)

// Decoder metrics: the EVD erasure load (zero metrics cover both silence
// erasures and punctured positions) and the end-to-end decode latency,
// traceback included.
var (
	mDecodes = obs.Default().Counter("coding_viterbi_decodes_total",
		"Viterbi decode calls.")
	mDecodedBits = obs.Default().Counter("coding_viterbi_bits_total",
		"Information bits produced by the Viterbi decoder.")
	mErasedMetrics = obs.Default().Counter("coding_viterbi_erased_metrics_total",
		"Zero (erased) input metrics seen by the decoder: silence erasures plus punctured positions.")
	mDecodeSeconds = obs.Default().Histogram("coding_viterbi_decode_seconds",
		"Viterbi decode latency including traceback.", nil)
)

// Viterbi decodes the 802.11a rate-1/2 convolutional code from soft bit
// metrics, implementing the paper's erasure Viterbi decoding (EVD).
//
// The input is one metric per mother-code bit (so len(metrics) must be even:
// A and B generator outputs alternate). Each metric is an LLR-style value:
// positive favors bit 1, negative favors bit 0, and exactly zero means the
// bit is erased (silence symbol or punctured position) and contributes
// nothing to any path — precisely Eq. (7) of the paper.
//
// The decoder maximizes sum over coded bits of metric * (2*bit - 1) with a
// full traceback over the whole block.
type Viterbi struct {
	// Terminated selects terminated-trellis decoding: the encoder is assumed
	// to have been flushed with TailBits zeros, so the survivor ending in
	// state 0 is chosen. When false, the best-metric end state is used.
	Terminated bool
}

// ViterbiScratch holds the decoder's working storage — the two path-metric
// columns, one packed uint64 of survivor decisions per trellis step (bit ns
// set when next state ns was reached from its odd predecessor), and the
// output bits — so repeated decodes reuse one arena. The zero value is ready
// to use; the decision and output slices grow on demand and are retained
// between calls. A scratch must not be shared across concurrent decodes, and
// the bits returned by DecodeInto are valid only until the next decode with
// the same scratch.
type ViterbiScratch struct {
	cur, next [NumStates]float64
	decisions []uint64
	out       []byte
}

// Decode returns the maximum-likelihood information bits for the given
// metrics. The returned slice has len(metrics)/2 bits, including any tail
// bits the encoder appended.
func (v *Viterbi) Decode(metrics []float64) ([]byte, error) {
	return v.DecodeInto(nil, metrics)
}

// DecodeInto is Decode using s as working storage; the returned bits alias
// s and are valid until the next decode with the same scratch. A nil s
// decodes into fresh storage, making DecodeInto(nil, m) identical to
// Decode(m).
func (v *Viterbi) DecodeInto(s *ViterbiScratch, metrics []float64) ([]byte, error) {
	if len(metrics)%2 != 0 {
		return nil, fmt.Errorf("coding: metric count %d is odd; rate-1/2 code needs pairs", len(metrics))
	}
	steps := len(metrics) / 2
	if steps == 0 {
		return nil, nil
	}
	// Metrics live in this wrapper, not in decode: values held across the
	// trellis loop (the timer, the erasure count) cost registers the hot
	// loop needs, a measured ~5% on a 1 KB decode.
	start := time.Now()
	erased := 0
	for _, m := range metrics {
		// Branchless count: erasure positions look random to the branch
		// predictor, and a mispredicting loop over ~16k metrics is
		// measurable next to the decode itself.
		inc := 0
		if m == 0 {
			inc = 1
		}
		erased += inc
	}
	out, err := v.decode(s, metrics)
	if err != nil {
		return nil, err
	}
	mDecodes.Inc()
	mDecodedBits.Add(uint64(steps))
	mErasedMetrics.Add(uint64(erased))
	mDecodeSeconds.ObserveSince(start)
	return out, nil
}

// negInf is the path metric of an unreachable state.
var negInf = math.Inf(-1)

// The trellis is the encoder's shift register: input bit b moves state s to
// b<<5 | s>>1. So the predecessors of next state ns are exactly
// p0 = 2(ns&31) and p0+1, and the input bit is ns>>5: next states j and
// j+32 share the pair (2j, 2j+1), a butterfly. Both generators tap the
// newest and the oldest register bit, so of a butterfly's four branches,
// 2j->j and 2j+1->j+32 carry the same antipodal outputs and the other two
// carry their negation.
//
// butterfly[j] holds the ±1 outputs (generator A, generator B) of branch
// 2j->j, computed once at package init; the code is fixed by the standard.
var butterfly [NumStates / 2]struct{ a, b float64 }

func init() {
	for j := range butterfly {
		window := uint(2 * j) // input bit 0, register 2j
		butterfly[j].a = float64(2*int(parity(window&GeneratorA)) - 1)
		butterfly[j].b = float64(2*int(parity(window&GeneratorB)) - 1)
	}
}

// decode runs the add-compare-select once per butterfly and packs each
// step's 64 survivor decisions into one uint64 (bit ns set when p0+1 won
// ns), so traceback re-derives every predecessor from the state alone.
// The numerics are pinned by the goldens; changing them is a versioned
// numerics change with a deliberate golden re-pin:
//   - each candidate is pm + outA*mA + outB*mB, added in that order, with
//     outA*mA and outB*mB formed by multiplying with the ±1 signs. The
//     negated branches subtract those products, which IEEE 754 defines as
//     adding their negation, so the rounding is the same;
//   - the comparison is strict, so p0 wins a tie;
//   - a -Inf or NaN candidate from p0 is clamped to -Inf, and one from
//     p0+1 cannot pass the strict comparison, so unreachable states stay
//     -Inf and NaN never enters a path metric.
func (v *Viterbi) decode(s *ViterbiScratch, metrics []float64) ([]byte, error) {
	if s == nil {
		s = &ViterbiScratch{}
	}
	steps := len(metrics) / 2
	cur, next := &s.cur, &s.next
	cur[0] = 0 // encoder starts in state 0
	for st := 1; st < NumStates; st++ {
		cur[st] = negInf
	}
	if cap(s.decisions) < steps {
		s.decisions = make([]uint64, steps)
	}
	decisions := s.decisions[:steps]

	for t := range decisions {
		mA := metrics[2*t]
		mB := metrics[2*t+1]
		var d uint64
		for j := 0; j < NumStates/2; j++ {
			pm0, pm1 := cur[2*j], cur[2*j+1]
			a, b := butterfly[j].a*mA, butterfly[j].b*mB // branch 2j->j
			lo, dlo := acs(pm0+a+b, pm1-a-b)
			hi, dhi := acs(pm0-a-b, pm1+a+b)
			next[j], next[j+NumStates/2] = lo, hi
			d |= dlo<<j | dhi<<(j+NumStates/2)
		}
		decisions[t] = d
		cur, next = next, cur
	}

	// Pick the terminal state.
	end := 0
	if !v.Terminated {
		best := cur[0]
		for s := 1; s < NumStates; s++ {
			if cur[s] > best {
				best = cur[s]
				end = s
			}
		}
	}
	if math.IsInf(cur[end], -1) {
		return nil, fmt.Errorf("coding: no surviving path to end state %d", end)
	}

	s.out = growBytes(s.out, steps)
	out := s.out
	state := uint(end)
	for t := steps - 1; t >= 0; t-- {
		out[t] = byte(state >> 5)
		state = 2*(state&31) + uint(decisions[t]>>state&1)
	}
	return out, nil
}

// acs selects the survivor of candidates m0 (from p0) and m1 (from p0+1),
// returning its metric and 1 when m1 won. The metric is picked with a mask
// rather than a branch: on noisy metrics the winner is unpredictable, and
// a mispredicted branch per state costs more than the whole ACS.
func acs(m0, m1 float64) (float64, uint64) {
	if !(m0 > negInf) {
		m0 = negInf
	}
	var bit uint64
	if m1 > m0 {
		bit = 1
	}
	w0, w1 := math.Float64bits(m0), math.Float64bits(m1)
	return math.Float64frombits(w0 ^ (w0^w1)&-bit), bit
}

// HardMetrics converts hard bits into antipodal metrics of the given
// confidence (use 1.0 for unit confidence). It is a convenience for tests
// and hard-decision baselines. Erasures can be injected afterwards by
// zeroing entries.
func HardMetrics(bits []byte, confidence float64) ([]float64, error) {
	out := make([]float64, len(bits))
	for i, b := range bits {
		if b > 1 {
			return nil, fmt.Errorf("coding: element %d = %d is not a bit", i, b)
		}
		out[i] = confidence * float64(2*int(b)-1)
	}
	return out, nil
}
