package experiments

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Figure goldens: the SHA-256 of every experiment's CSV rendering at a
// small scale and two seeds. They pin each figure's bytes across
// refactors of how the figure is computed (decomposition, executor,
// worker count); a legitimate change to a figure's science regenerates
// the file from the lines this test prints on mismatch.
const figureGoldenScale = 0.05

var figureGoldenSeeds = []int64{1, 7}

func TestFigureGolden(t *testing.T) {
	path := filepath.Join("testdata", "figures_v1.golden")
	want := map[string]string{}
	if f, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) != 3 {
				t.Fatalf("%s: malformed line %q", path, line)
			}
			want[fields[0]+" "+fields[1]] = fields[2]
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	} else {
		t.Errorf("reading %s: %v", path, err)
	}

	var got []string
	for _, id := range IDs() {
		for _, seed := range figureGoldenSeeds {
			res, err := Run(context.Background(), id, RunOptions{Scale: figureGoldenScale, Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", id, seed, err)
			}
			sum := sha256.Sum256([]byte(res.String()))
			key := fmt.Sprintf("%s %d", id, seed)
			h := hex.EncodeToString(sum[:])
			got = append(got, key+" "+h)
			if want[key] != h {
				t.Errorf("%s: CSV digest %s, golden %q", key, h, want[key])
			}
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d entries, the registry renders %d", len(want), len(got))
	}
	if t.Failed() {
		t.Logf("current digests (scale %v):\n%s", figureGoldenScale, strings.Join(got, "\n"))
	}
}
