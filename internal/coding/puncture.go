package coding

import "fmt"

// CodeRate identifies one of the 802.11a convolutional code rates.
type CodeRate int

// Code rates defined by 802.11a. Rates 2/3 and 3/4 are obtained from the
// mother rate-1/2 code by puncturing (17.3.5.6).
const (
	Rate1_2 CodeRate = iota + 1
	Rate2_3
	Rate3_4
)

// String returns the conventional fraction form, e.g. "1/2".
func (r CodeRate) String() string {
	switch r {
	case Rate1_2:
		return "1/2"
	case Rate2_3:
		return "2/3"
	case Rate3_4:
		return "3/4"
	default:
		return fmt.Sprintf("CodeRate(%d)", int(r))
	}
}

// Fraction returns the numerator and denominator of the code rate.
func (r CodeRate) Fraction() (num, den int) {
	switch r {
	case Rate2_3:
		return 2, 3
	case Rate3_4:
		return 3, 4
	default:
		return 1, 2
	}
}

// Kept positions within one puncture period of the A/B-interleaved
// rate-1/2 encoder output:
//
//	1/2: (A1 B1)             -> A1 B1         keep {0,1}
//	2/3: (A1 B1 A2 B2)       -> A1 B1 A2      keep {0,1,2}
//	3/4: (A1 B1 A2 B2 A3 B3) -> A1 B1 A2 B3   keep {0,1,2,5}
var (
	kept1_2 = []int{0, 1}
	kept2_3 = []int{0, 1, 2}
	kept3_4 = []int{0, 1, 2, 5}
)

// keptIndices returns the rate's puncture period and the positions within
// one period that survive puncturing, in ascending order. The result is
// shared and must not be modified.
func (r CodeRate) keptIndices() (period int, kept []int) {
	switch r {
	case Rate2_3:
		return 4, kept2_3
	case Rate3_4:
		return 6, kept3_4
	default:
		return 2, kept1_2
	}
}

// Valid reports whether r is one of the defined code rates.
func (r CodeRate) Valid() bool {
	return r == Rate1_2 || r == Rate2_3 || r == Rate3_4
}

// PuncturedLen returns the number of coded bits after puncturing motherLen
// rate-1/2 coded bits. motherLen must be a multiple of the pattern period.
func (r CodeRate) PuncturedLen(motherLen int) (int, error) {
	if !r.Valid() {
		return 0, fmt.Errorf("coding: invalid code rate %d", int(r))
	}
	period, kept := r.keptIndices()
	if motherLen%period != 0 {
		return 0, fmt.Errorf("coding: mother-code length %d is not a multiple of puncture period %d", motherLen, period)
	}
	return motherLen / period * len(kept), nil
}

// Puncture drops coded bits from the rate-1/2 stream according to the rate's
// pattern. len(in) must be a multiple of the pattern period (the PHY pads
// data so this always holds).
func Puncture(in []byte, r CodeRate) ([]byte, error) {
	return PunctureInto([]byte{}, in, r)
}

// DepunctureMetrics reinserts zero (erasure) metrics at punctured positions,
// restoring the mother-code length. A zero metric carries no information, so
// the Viterbi decoder treats punctured bits exactly like erased bits.
func DepunctureMetrics(in []float64, r CodeRate) ([]float64, error) {
	return DepunctureMetricsInto([]float64{}, in, r)
}
