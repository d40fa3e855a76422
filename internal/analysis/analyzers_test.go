package analysis_test

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"smartssd/internal/analysis"
	"smartssd/internal/analysis/framework"
)

// TestAnalyzerFixtures runs every analyzer over its testdata fixture
// package, checking findings against the // want annotations —
// positive cases must be reported, everything else (including the
// nil-guarded TraceEvent pattern from internal/sim/server.go and the
// collect-then-sort idiom) must stay silent, and //lint:allow
// directives must suppress.
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range analysis.All() {
		t.Run(a.Name, func(t *testing.T) {
			problems, err := framework.CheckFixture(a, filepath.Join("testdata", a.Name))
			if err != nil {
				t.Fatalf("fixture %s: %v", a.Name, err)
			}
			for _, p := range problems {
				t.Error(p)
			}
		})
	}
}

// TestSuiteNames pins the analyzer set: CI and the DESIGN.md contract
// reference these nine names, and //lint:allow directives embed them
// in source, so renames are breaking changes.
func TestSuiteNames(t *testing.T) {
	want := []string{
		"walltime", "seededrand", "maporder", "sentinelcmp", "tracehook",
		"chargeconservation", "lockorder", "goroutineowner", "cloneshared",
	}
	suite := analysis.All()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
	}
}

// moduleRun loads the whole module and runs the full suite over it
// once per test binary: loading and type-checking every package is the
// expensive part, and one Result carries both the findings
// TestRepoIsClean checks and the directives TestNoStaleSuppressions
// audits.
var moduleRun = sync.OnceValues(func() (*framework.Result, error) {
	pkgs, err := framework.Load(filepath.Join("..", ".."), "./...")
	if err != nil {
		return nil, err
	}
	return framework.RunSuite(pkgs, analysis.All())
})

// moduleResult returns the shared whole-module run, skipping under
// -short.
func moduleResult(t *testing.T) *framework.Result {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	res, err := moduleRun()
	if err != nil {
		t.Fatalf("running suite over the module: %v", err)
	}
	return res
}

// TestNoStaleSuppressions audits every //lint:allow directive in the
// module: each must name an analyzer the suite actually runs, and each
// must have suppressed at least one diagnostic this run. A directive
// that suppresses nothing is dead weight that would silently mask the
// next real regression at that site, so this test fails until it is
// deleted (the same check CI runs via simlint -stale).
func TestNoStaleSuppressions(t *testing.T) {
	res := moduleResult(t)

	known := make(map[string]bool)
	for _, a := range analysis.All() {
		known[a.Name] = true
	}
	for _, d := range res.Directives {
		if !known[d.Analyzer] {
			t.Errorf("%s: //lint:allow names unknown analyzer %q", d.Pos, d.Analyzer)
		}
	}
	for _, d := range res.Stale {
		t.Errorf("%s: stale //lint:allow %s — suppresses nothing, delete it", d.Pos, d.Analyzer)
	}

	// The queryrun wall-time report is the oldest suppression in the
	// tree; if the loader or directive parser regresses it shows up
	// here first, as a directive that is missing or no longer Used.
	var queryrunWalltime int
	for _, d := range res.Directives {
		if d.Analyzer == "walltime" && strings.Contains(d.Pos.Filename, filepath.Join("cmd", "queryrun")) {
			if !d.Used {
				t.Errorf("%s: queryrun walltime allow is no longer exercised", d.Pos)
			}
			queryrunWalltime++
		}
	}
	if queryrunWalltime == 0 {
		t.Error("queryrun walltime allow directives not seen by the audit")
	}
}

// TestRepoIsClean runs the full suite over the entire module — the
// same check CI's lint step performs. Any finding here means the
// determinism contract is violated in committed code.
func TestRepoIsClean(t *testing.T) {
	for _, f := range moduleResult(t).Findings {
		t.Errorf("%s", f)
	}
}
