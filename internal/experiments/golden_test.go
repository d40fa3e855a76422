package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"smartssd/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden artifacts in testdata/")

// goldenOptions is deliberately small: golden tests pin bytes, not
// paper shapes (the shape tests above do that), so the cheapest
// deterministic dataset is the right one.
func goldenOptions() Options {
	return Options{SF: 0.01, SynthR: 400, Seed: 1}
}

type goldenArtifact struct {
	name string
	run  func(Options) (string, error)
}

func goldenArtifacts() []goldenArtifact {
	return []goldenArtifact{
		{"table2", func(o Options) (string, error) {
			r, err := Table2(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"fig3", func(o Options) (string, error) {
			r, err := Fig3(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"fig5", func(o Options) (string, error) {
			r, err := Fig5(o, nil)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"fig7", func(o Options) (string, error) {
			r, err := Fig7(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"table3", func(o Options) (string, error) {
			r, err := Table3(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"planner", func(o Options) (string, error) {
			r, err := Planner(o, nil)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"q1", func(o Options) (string, error) {
			r, err := ExtQ1(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"concurrency", func(o Options) (string, error) {
			r, err := ExtConcurrency(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"interfaces", func(o Options) (string, error) {
			r, err := ExtInterface(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"hybrid", func(o Options) (string, error) {
			r, err := ExtHybrid(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"faults", func(o Options) (string, error) {
			r, err := ExtFaults(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
	}
}

// checkArtifacts renders every artifact once, with a tracer hooked if
// traced, and requires it to be byte-identical to its golden file; with
// -update it rewrites the file instead.
func checkArtifacts(t *testing.T, traced bool) {
	for _, a := range goldenArtifacts() {
		a := a
		t.Run(a.name, func(t *testing.T) {
			o := goldenOptions()
			events := 0
			if traced {
				o.Tracer = func(sim.TraceEvent) { events++ }
			}
			got, err := a.run(o)
			if err != nil {
				t.Fatal(err)
			}
			if traced && events == 0 {
				t.Error("tracer hooked but saw no events")
			}
			path := filepath.Join("testdata", a.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if string(want) != got {
				t.Fatalf("artifact drifted from %s:\n--- golden ---\n%s--- got ---\n%s", path, want, got)
			}
		})
	}
}

// TestUntracedArtifacts pins every `-exp all` artifact — the paper's
// figures and tables plus every extension experiment — rendered
// untraced. The golden files were recorded while the tuple-at-a-time
// executor, the vectorized one and a batch size of 3 agreed on every
// byte, so the one executor left must still render them; only an
// intentional model change may rewrite them (-update).
func TestUntracedArtifacts(t *testing.T) {
	checkArtifacts(t, false)
}

// TestGoldenArtifacts proves that turning the tracer on does not
// perturb a single byte of any artifact: tracing observes virtual time,
// it never charges it, so the traced render must equal the same golden
// files.
func TestGoldenArtifacts(t *testing.T) {
	checkArtifacts(t, true)
}
