package experiments

import "testing"

// parallelArtifacts extends the golden set to every Options-driven
// experiment the benchsuite exposes (util is not pinned: it is outside
// -exp all): the harness guarantee is per-experiment, so each report is
// checked individually.
func parallelArtifacts() []goldenArtifact {
	return append(goldenArtifacts(), goldenArtifact{"util", func(o Options) (string, error) {
		r, err := ExtUtil(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}})
}

// TestParallelSerialEquivalence is the tentpole determinism proof: every
// experiment report must be byte-identical whether its sweep runs on the
// serial pre-harness path (Parallelism 1), fanned out across 8 workers
// with per-worker engine reuse (the default), or fanned out with a
// fresh pre-built clone per sweep point (FreshClones, the no-reuse
// reference). Run under -race in CI, this also exercises the harness's
// engine-clone isolation and proves ResetForRun leaks no state from
// one sweep point into the next.
func TestParallelSerialEquivalence(t *testing.T) {
	for _, a := range parallelArtifacts() {
		a := a
		t.Run(a.name, func(t *testing.T) {
			t.Parallel()
			serial := goldenOptions()
			serial.Parallelism = 1
			want, err := a.run(serial)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			for _, mode := range []struct {
				name  string
				fresh bool
			}{
				{"reuse", false},
				{"fresh-clones", true},
			} {
				par := goldenOptions()
				par.Parallelism = 8
				par.FreshClones = mode.fresh
				got, err := a.run(par)
				if err != nil {
					t.Fatalf("parallel %s run: %v", mode.name, err)
				}
				if got != want {
					t.Fatalf("report differs between -par 1 and -par 8 (%s):\n--- serial ---\n%s--- parallel ---\n%s",
						mode.name, want, got)
				}
			}
		})
	}
}
