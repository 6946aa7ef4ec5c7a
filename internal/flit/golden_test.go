package flit

// Full-Result golden for the flit engine: a matrix of configurations
// whose every Result field (floats by their bit patterns) and every
// flit.* counter delta is pinned in testdata/engine_results.golden.
// Any change to the event loop that is meant to be a pure speed-up must
// leave this file byte-identical. Regenerate (only for an intended
// behavior change) with:
//
//	go test ./internal/flit -run TestEngineResultsGolden -update

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xgftsim/internal/core"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current engine")

const goldenPath = "testdata/engine_results.golden"

// goldenCase is one named configuration of the matrix.
type goldenCase struct {
	name string
	cfg  Config
}

// goldenFaultMode is one fault/repair/drain setting of the matrix.
type goldenFaultMode struct {
	name   string
	faults *topology.FaultSet
	repair bool
	drain  bool
}

// goldenCases builds the matrix: on a 3-level 16-node fabric, selectors
// × VC setups × Poisson/bursty arrivals × fault modes × path policies
// (oblivious only) × uniform/permutation/hotspot × a sub- and a
// super-saturation load; plus a high-radix 2-level fabric whose leaf
// switches have more than 64 ports.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	tp := topology.MustNew(3, []int{2, 2, 4}, []int{1, 2, 2})
	n := tp.NumProcessors()
	cables, err := topology.RandomCableFaults(tp, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	leafDead := topology.NewFaultSet(tp)
	if err := leafDead.FailSwitch(topology.NodeID(n + 1)); err != nil {
		t.Fatal(err)
	}
	patterns := []traffic.Pattern{
		traffic.UniformPattern{N: n},
		traffic.NewPermutationPattern("perm", traffic.RandomDerangementish(n, rand.New(rand.NewSource(21)))),
		traffic.HotspotPattern{N: n, Hot: 3, Fraction: 0.25},
	}
	patternNames := []string{"uniform", "perm", "hotspot"}
	vcSetups := []struct {
		vcs    int
		scheme VCScheme
	}{{1, VCRoundRobin}, {2, VCRoundRobin}, {2, VCDestSubtree}, {3, VCDownDigit}}
	faultModes := []goldenFaultMode{
		{name: "healthy"},
		{name: "drain", drain: true},
		{name: "cables", faults: cables, drain: true},
		{name: "cables+repair", faults: cables, repair: true, drain: true},
		{name: "switch+repair", faults: leafDead, repair: true},
	}
	routing := core.NewRouting(tp, core.Disjoint{}, 4, 0)
	randomK := core.NewRouting(tp, core.RandomK{}, 2, 5)
	var cases []goldenCase
	for _, sel := range []OutputSelector{SelectOblivious, SelectAdaptive, SelectAdaptiveK} {
		policies := []PathPolicy{RoundRobin}
		if sel == SelectOblivious {
			policies = append(policies, RandomPath)
		}
		for _, fm := range faultModes {
			if fm.repair && sel != SelectOblivious {
				continue // repair is an oblivious-only knob
			}
			for _, pol := range policies {
				for pi, pat := range patterns {
					for _, vs := range vcSetups {
						for _, burst := range []float64{1, 4} {
							for _, load := range []float64{0.3, 1.0} {
								r := routing
								if pol == RandomPath {
									r = randomK
								}
								cases = append(cases, goldenCase{
									name: fmt.Sprintf("%s/%s/%s/%s/vc%d-%s/burst%g/load%g",
										sel, fm.name, pol, patternNames[pi], vs.vcs, vs.scheme, burst, load),
									cfg: Config{
										Routing: r, Pattern: pat, OfferedLoad: load,
										WarmupCycles: 300, MeasureCycles: 1000, Seed: 17,
										PathPolicy: pol, Selector: sel,
										VirtualChannels: vs.vcs, VCScheme: vs.scheme, BurstMean: burst,
										Faults: fm.faults, RepairRoutes: fm.repair, Drain: fm.drain,
										DelayHistogram: true,
									},
								})
							}
						}
					}
				}
			}
		}
	}
	// High-radix fabric: 72 processors per leaf switch, so every leaf
	// has 74 inbound links and the per-node structures span several
	// 64-bit words.
	wide := topology.MustNew(2, []int{72, 2}, []int{1, 2})
	wn := wide.NumProcessors()
	wideRouting := core.NewRouting(wide, core.Disjoint{}, 2, 0)
	widePatterns := []traffic.Pattern{
		traffic.UniformPattern{N: wn},
		traffic.NewPermutationPattern("perm", traffic.RandomDerangementish(wn, rand.New(rand.NewSource(22)))),
		traffic.HotspotPattern{N: wn, Hot: 100, Fraction: 0.25},
	}
	for _, sel := range []OutputSelector{SelectOblivious, SelectAdaptive, SelectAdaptiveK} {
		for pi, pat := range widePatterns {
			for _, load := range []float64{0.02, 1.0} {
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("wide/%s/%s/load%g", sel, patternNames[pi], load),
					cfg: Config{
						Routing: wideRouting, Pattern: pat, OfferedLoad: load,
						WarmupCycles: 200, MeasureCycles: 600, Seed: 23,
						Selector: sel, VirtualChannels: 2, Drain: true,
					},
				})
			}
		}
	}
	return cases
}

// goldenLine renders one run: every Result field bit-exactly, then the
// run's flit.* counter deltas.
func goldenLine(name string, r Result, d [8]int64) string {
	f := func(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }
	return fmt.Sprintf("%s offered=%s thr=%s delay=%s ci=%s p95=%s gen=%d done=%d unroutable=%d flits=%d backlog=%d stalls=%d fair=%s sat=%v cycles=%d wedged=%v at=%d diag=%q"+
		" | runs=%d cycles=%d ejected=%d generated=%d completed=%d unroutable=%d vc_stalls=%d wedges=%d",
		name, f(r.OfferedLoad), f(r.Throughput), f(r.AvgDelay), f(r.DelayCI), f(r.P95Delay),
		r.MsgsGenerated, r.MsgsCompleted, r.MsgsUnroutable, r.FlitsEjected, r.BacklogPackets, r.VCStalls,
		f(r.Fairness), r.Saturated, r.Cycles, r.Wedged, r.WedgedAt, r.WedgeDiagnosis,
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7])
}

// counterValues reads the flit.* counters (the gauge is a process-wide
// high-water mark and has no per-run delta).
func counterValues() [8]int64 {
	return [8]int64{met.runs.Value(), met.cycles.Value(), met.flitsEjected.Value(),
		met.msgsGenerated.Value(), met.msgsCompleted.Value(), met.msgsUnroutable.Value(),
		met.vcStalls.Value(), met.wedges.Value()}
}

// TestEngineResultsGolden runs the matrix and compares every line with
// the recorded golden.
func TestEngineResultsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range goldenCases(t) {
		before := counterValues()
		r, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		after := counterValues()
		var d [8]int64
		for i := range d {
			d[i] = after[i] - before[i]
		}
		buf.WriteString(goldenLine(c.name, r, d))
		buf.WriteByte('\n')
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	got := strings.Split(buf.String(), "\n")
	exp := strings.Split(string(want), "\n")
	if len(got) != len(exp) {
		t.Errorf("golden has %d lines, run produced %d", len(exp), len(got))
	}
	bad := 0
	for i := 0; i < len(got) && i < len(exp); i++ {
		if got[i] != exp[i] {
			if bad < 5 {
				t.Errorf("line %d differs:\n got  %s\n want %s", i+1, got[i], exp[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d golden lines differ", bad, len(exp)-1)
	}
}
