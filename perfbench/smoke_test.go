package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary serve as the traced node entry, as the
// benchmark binary does: the traced pass re-executes os.Executable().
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "node" {
		os.Exit(nodeMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// TestSmoke boots real nodes for every workload, runs each for a few
// seconds untraced and traced, and asserts that every named metric comes
// back with its unit and every output check passes. It builds
// qbets-serve from this checkout, so it is skipped under -short.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real qbets-serve processes")
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	serve := filepath.Join(dir, "qbets-serve")
	if out, err := exec.Command("go", "build", "-o", serve, "repro/cmd/qbets-serve").CombinedOutput(); err != nil {
		t.Fatalf("building qbets-serve: %v\n%s", err, out)
	}
	wantE2E := map[string]string{"setup_s": "s", "cpu_ms_per_kreq": "ms", "leader_rss_mb": "MiB", "coverage": "ratio"}
	for _, name := range []string{"ingest-durable", "serve-mixed", "whatif-plan"} {
		t.Run(name, func(t *testing.T) {
			spec, err := loadSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, traced := range []bool{false, true} {
				work, err := os.MkdirTemp(dir, name+"-")
				if err != nil {
					t.Fatal(err)
				}
				b := &bench{spec: spec, seed: 7, seconds: 3, serveBin: serve, selfBin: self, dir: work}
				out, err := b.run(traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !out.Correct || out.Attempted == 0 || out.Failed != 0 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, out.Correct, out.Attempted, out.Failed)
				}
				want := wantE2E
				if traced {
					want = map[string]string{}
					for _, m := range perLayer {
						want[m.name] = m.unit
					}
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(out.Metrics), len(want))
				}
				for n, unit := range want {
					m, ok := out.Metrics[n]
					if !ok || m.Unit != unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, n, m, unit)
					}
					if !traced && !(m.Value > 0) {
						t.Errorf("metric %s = %v, want > 0", n, m.Value)
					}
				}
			}
		})
	}
}
