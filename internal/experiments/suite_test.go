package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// suiteRender regenerates the four engine-backed artifacts on s and
// returns their concatenated renders.
func suiteRender(t *testing.T, s *Suite) string {
	t.Helper()
	f3, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	f5, err := s.Fig5(nil)
	if err != nil {
		t.Fatal(err)
	}
	f7, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	t3, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	return f3.Render() + f5.Render() + f7.Render() + t3.Render()
}

// TestSuitePassesByteIdentical is the steady-state guarantee behind
// BenchmarkSuiteWallClock: a long-lived Suite that reuses its loaded
// bases, worker clones, and crew across whole passes renders every
// artifact byte-identically to the golden files, on every pass, at
// serial and parallel widths alike. TestUntracedArtifacts pins the
// one-shot functions to the same files. A mismatch means ResetForRun
// leaked state from one pass into the next.
func TestSuitePassesByteIdentical(t *testing.T) {
	var want string
	for _, name := range []string{"fig3", "fig5", "fig7", "table3"} {
		b, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		want += string(b)
	}

	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par_%d", par), func(t *testing.T) {
			so := goldenOptions()
			so.Parallelism = par
			s := NewSuite(so)
			defer s.Close()
			for pass := 0; pass < 3; pass++ {
				got := suiteRender(t, s)
				if got != want {
					t.Fatalf("pass %d: suite render diverges from the golden files\nsuite:\n%s\ngolden:\n%s",
						pass, got, want)
				}
			}
		})
	}
}
