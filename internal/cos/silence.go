package cos

import (
	"cos/internal/ofdm"
	"cos/internal/phy"
)

// InsertSilences is the power controller of Fig. 8: it zeroes the grid
// entries at the given positions (a silence symbol is a data symbol
// transmitted with zero power, implemented by feeding 0 into the IFFT) and
// returns the erasure mask in the [symbol][subcarrier] layout the decoder
// and diagnostics consume.
func InsertSilences(grid *ofdm.Grid, positions []Pos) ([][]bool, error) {
	return InsertSilencesInto([][]bool{}, grid, positions)
}

// NewMask allocates an all-false [numSymbols][48] mask.
func NewMask(numSymbols int) [][]bool {
	mask := make([][]bool, numSymbols)
	for i := range mask {
		mask[i] = make([]bool, ofdm.NumData)
	}
	return mask
}

// MaskPositions lists the true entries of a mask in traversal order
// restricted to the given control subcarriers.
func MaskPositions(mask [][]bool, ctrlSCs []int) []Pos {
	var out []Pos
	for s := range mask {
		for _, sc := range ctrlSCs {
			if mask[s][sc] {
				out = append(out, Pos{Sym: s, SC: sc})
			}
		}
	}
	return out
}

// Embed encodes controlBits into silence symbols on the packet's control
// subcarriers: interval encoding, layout, and grid erasure in one call.
// It returns the erasure mask ground truth (what the transmitter actually
// silenced).
func Embed(pkt *phy.TxPacket, ctrlSCs []int, controlBits []byte, k int) ([][]bool, error) {
	intervals, err := EncodeIntervals(controlBits, k)
	if err != nil {
		return nil, err
	}
	positions, err := Layout(intervals, pkt.NumSymbols(), ctrlSCs)
	if err != nil {
		return nil, err
	}
	return InsertSilences(pkt.Grid, positions)
}
