package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the pinned result fingerprints in testdata/")

// pinnedModes are the placements every pinned spec runs under.
var pinnedModes = []Mode{ForceHost, ForceDevice, ForceHybrid}

// pinned holds the SHA-256 of resultFingerprint for a property's seeded
// runs, one "<key> <hex>" line per run in testdata/<name>.pinned. The
// hashes were recorded while a tuple-at-a-time executor still ran beside
// the vectorized one on both runtimes and the two agreed byte for byte,
// so a match proves a run still returns, times and charges exactly what
// that executor did. Run with -update only after an intentional change
// to the virtual timeline.
type pinned struct {
	path string
	want map[string]string
	got  []string
}

// loadPinned reads testdata/<name>.pinned; under -update it instead
// rewrites the file from every check once the calling test finishes.
func loadPinned(t *testing.T, name string) *pinned {
	t.Helper()
	p := &pinned{path: filepath.Join("testdata", name+".pinned"), want: map[string]string{}}
	if *update {
		t.Cleanup(func() {
			if err := os.WriteFile(p.path, []byte(strings.Join(p.got, "\n")+"\n"), 0o644); err != nil {
				t.Error(err)
			}
		})
		return p
	}
	f, err := os.Open(p.path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", p.path, sc.Text())
		}
		p.want[key] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return p
}

// check compares res's fingerprint hash against the one pinned under key.
func (p *pinned) check(t *testing.T, key string, res *Result) {
	t.Helper()
	fp := resultFingerprint(res)
	sum := sha256.Sum256([]byte(fp))
	got := hex.EncodeToString(sum[:])
	p.got = append(p.got, key+" "+got)
	if *update {
		return
	}
	if want := p.want[key]; want != got {
		t.Errorf("%s: fingerprint %s, pinned %q in %s; the run was:\n%s", key, got, want, p.path, fp)
	}
}

// runPinned runs spec under every pinned mode, each on a fresh clone of
// e so every run starts from the same cold simulator state, checks each
// result against the pin "<key>/<mode>", and returns the results in
// pinnedModes order.
func (p *pinned) runPinned(t *testing.T, key string, e *Engine, spec QuerySpec) []*Result {
	t.Helper()
	out := make([]*Result, len(pinnedModes))
	for i, mode := range pinnedModes {
		c, err := e.Clone()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = mustRun(t, c, spec, mode)
		p.check(t, fmt.Sprintf("%s/%v", key, mode), out[i])
	}
	return out
}
