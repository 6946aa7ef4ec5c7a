package flow

import (
	"math"
	"testing"

	"xgftsim/internal/core"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 1 {
		return d / m
	}
	return d
}

// TestMultiKEvaluatorMatchesPerK pins the multi-K evaluator against
// independent per-K evaluators on every scheme class and both
// backends: each K column's MLOAD must agree within 1e-12 (count
// folding / the Theorem-1 OLOAD shortcut vs repeated adds), and
// columns whose effective count is X at every level must be
// bit-identical to OptimalLoad (they are computed by the same
// subtree-cut pass, never walked).
func TestMultiKEvaluatorMatchesPerK(t *testing.T) {
	topos := []*topology.Topology{
		topology.MustNew(2, []int{4, 8}, []int{1, 4}),       // X = 4
		topology.MustNew(3, []int{2, 3, 2}, []int{2, 2, 3}), // X = 12, multi-level
		topology.MustNew(2, []int{5, 20}, []int{1, 18}),     // X = 18, sparse random regime
	}
	sels := []core.Selector{core.Shift1{}, core.Disjoint{}, core.RandomK{}, core.DModK{}, core.UMulti{}}
	for _, tp := range topos {
		maxX := tp.MaxPaths()
		ks := []int{1, 2, 3}
		if maxX > 4 {
			ks = append(ks, maxX-1)
		}
		ks = append(ks, maxX)
		n := tp.NumProcessors()
		for _, sel := range sels {
			lazy := NewMultiKEvaluator(core.NewRouting(tp, sel, ks[len(ks)-1], 7), ks)
			c, err := core.CompileRouting(core.NewRouting(tp, sel, ks[len(ks)-1], 7), 1<<30)
			if err != nil {
				t.Fatalf("%s on %s: compile: %v", sel.Name(), tp, err)
			}
			comp := NewCompiledMultiKEvaluator(c, ks)
			outL := make([]float64, len(ks))
			outC := make([]float64, len(ks))
			for sample := 0; sample < 4; sample++ {
				rng := stats.Stream(99, int64(sample))
				tm := traffic.FromPermutation(traffic.RandomPermutation(n, rng))
				lazy.MaxLoads(tm, nil, outL)
				comp.MaxLoads(tm, nil, outC)
				for j, k := range ks {
					ref := NewEvaluator(core.NewRouting(tp, sel, k, 7)).MaxLoad(tm)
					if d := relDiff(outL[j], ref); d > 1e-12 {
						t.Errorf("%s on %s K=%d sample %d: lazy multi-K %v vs per-K %v (rel %g)",
							sel.Name(), tp, k, sample, outL[j], ref, d)
					}
					if d := relDiff(outC[j], ref); d > 1e-12 {
						t.Errorf("%s on %s K=%d sample %d: compiled multi-K %v vs per-K %v (rel %g)",
							sel.Name(), tp, k, sample, outC[j], ref, d)
					}
					_, isUMulti := sel.(core.UMulti)
					if x := tp.MaxPaths(); (sel.MultiPath() && k >= x) || isUMulti {
						opt := OptimalLoad(tp, tm)
						if outL[j] != opt || outC[j] != opt {
							t.Errorf("%s on %s K=%d (X=%d) sample %d: Theorem-1 column must equal OptimalLoad %v exactly, got lazy %v compiled %v",
								sel.Name(), tp, k, x, sample, opt, outL[j], outC[j])
						}
					}
				}
				if lazy.OptimalLoad(tm) != OptimalLoad(tp, tm) {
					t.Errorf("OptimalLoad mismatch on %s", tp)
				}
			}
		}
	}
}

// TestMultiKEvaluatorActiveFreezing checks that frozen columns are
// skipped without corrupting the live ones across calls (the vector
// sampler shrinks the active set monotonically).
func TestMultiKEvaluatorActiveFreezing(t *testing.T) {
	tp := topology.MustNew(3, []int{2, 2, 4}, []int{1, 2, 2})
	ks := []int{1, 2, 4}
	n := tp.NumProcessors()
	ev := NewMultiKEvaluator(core.NewRouting(tp, core.Disjoint{}, 4, 3), ks)
	ref := NewMultiKEvaluator(core.NewRouting(tp, core.Disjoint{}, 4, 3), ks)
	active := []bool{true, true, true}
	out := make([]float64, len(ks))
	refOut := make([]float64, len(ks))
	for sample := 0; sample < 6; sample++ {
		if sample == 2 {
			active[2] = false // freeze the largest K
		}
		if sample == 4 {
			active[0] = false
		}
		rng := stats.Stream(5, int64(sample))
		tm := traffic.FromPermutation(traffic.RandomPermutation(n, rng))
		for j := range out {
			out[j] = -1
		}
		ev.MaxLoads(tm, active, out)
		ref.MaxLoads(tm, nil, refOut)
		for j := range ks {
			if !active[j] {
				if out[j] != -1 {
					t.Fatalf("sample %d: frozen column %d written: %v", sample, j, out[j])
				}
				continue
			}
			if out[j] != refOut[j] {
				t.Fatalf("sample %d column %d: active-subset run %v vs full run %v", sample, j, out[j], refOut[j])
			}
		}
	}
}

// TestMultiKExperimentMatchesPerCell is the pipeline-level
// differential: MultiKExperiment must reproduce per-K flow.Experiment
// runs exactly — same sample counts (the vector sampler freezes each
// component where a scalar run stops), same half-widths and
// convergence flags, and means within 1e-12 — including when different
// K columns converge after different numbers of batches.
func TestMultiKExperimentMatchesPerCell(t *testing.T) {
	tp := topology.MustNew(3, []int{2, 2, 4}, []int{1, 2, 2})
	ks := []int{1, 2, 3, 4}
	cfg := stats.AdaptiveConfig{InitialSamples: 20, MaxSamples: 160, RelPrecision: 0.02, Parallelism: 2}
	for _, sel := range []core.Selector{core.Disjoint{}, core.RandomK{}} {
		vec := MultiKExperiment{Topo: tp, Sel: sel, Ks: ks, PermSeed: 42, Sampling: cfg}.Run()
		sawDifferentN := false
		for j, k := range ks {
			res := Experiment{Topo: tp, Sel: sel, K: k, PermSeed: 42, Sampling: cfg}.Run()
			if got, want := vec.Accs[j].N(), res.Acc.N(); got != want {
				t.Errorf("%s K=%d: multi-K sampled %d, per-cell %d", sel.Name(), k, got, want)
			}
			if d := relDiff(vec.Accs[j].Mean(), res.Acc.Mean()); d > 1e-12 {
				t.Errorf("%s K=%d: multi-K mean %v vs per-cell %v (rel %g)", sel.Name(), k, vec.Accs[j].Mean(), res.Acc.Mean(), d)
			}
			if d := relDiff(vec.HalfWidths[j], res.HalfWidth); d > 1e-9 {
				t.Errorf("%s K=%d: multi-K half-width %v vs per-cell %v", sel.Name(), k, vec.HalfWidths[j], res.HalfWidth)
			}
			if vec.Converged[j] != res.Converged {
				t.Errorf("%s K=%d: converged %v vs per-cell %v", sel.Name(), k, vec.Converged[j], res.Converged)
			}
			if j > 0 && vec.Accs[j].N() != vec.Accs[0].N() {
				sawDifferentN = true
			}
		}
		if !sawDifferentN {
			t.Logf("%s: all K columns converged at the same batch (freezing untested here)", sel.Name())
		}
	}
}

// TestLoadsTouchedClearing differential-tests the touched-link
// clearing in both per-K evaluators against an independent naive
// accumulation, across repeated calls with different matrices (the
// second call must fully clear the first call's footprint).
func TestLoadsTouchedClearing(t *testing.T) {
	tp := topology.MustNew(3, []int{2, 3, 2}, []int{2, 2, 3})
	n := tp.NumProcessors()
	for _, sel := range []core.Selector{core.DModK{}, core.Disjoint{}, core.RandomK{}} {
		r := core.NewRouting(tp, sel, 3, 11)
		lazy := NewEvaluator(r)
		c, err := core.CompileRouting(r, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		comp := NewCompiledEvaluator(c)
		for sample := 0; sample < 3; sample++ {
			rng := stats.Stream(7, int64(sample))
			tm := traffic.FromPermutation(traffic.RandomPermutation(n, rng))
			naive := make([]float64, tp.NumLinks())
			for _, f := range tm.Flows() {
				paths := r.Paths(f.Src, f.Dst)
				links := core.AppendPathSetLinks(tp, f.Src, f.Dst, paths, nil)
				share := f.Amount / float64(len(paths))
				for _, l := range links {
					naive[l] += share
				}
			}
			wantMax := 0.0
			for _, v := range naive {
				if v > wantMax {
					wantMax = v
				}
			}
			gotL := lazy.Loads(tm)
			for l := range naive {
				if gotL[l] != naive[l] {
					t.Fatalf("%s sample %d: lazy loads[%d] = %v, naive %v", sel.Name(), sample, l, gotL[l], naive[l])
				}
			}
			if got := lazy.MaxLoad(tm); got != wantMax {
				t.Fatalf("%s sample %d: lazy MaxLoad %v, naive %v", sel.Name(), sample, got, wantMax)
			}
			gotC := comp.Loads(tm)
			for l := range naive {
				if gotC[l] != naive[l] {
					t.Fatalf("%s sample %d: compiled loads[%d] = %v, naive %v", sel.Name(), sample, l, gotC[l], naive[l])
				}
			}
			if got := comp.MaxLoad(tm); got != wantMax {
				t.Fatalf("%s sample %d: compiled MaxLoad %v, naive %v", sel.Name(), sample, got, wantMax)
			}
		}
	}
}

// TestEvaluatorSteadyStateAllocs pins the zero-allocation steady state
// of the evaluation hot paths, including random-K routing (whose
// selector now draws inside the caller's path buffer instead of
// allocating a map or permutation per pair).
func TestEvaluatorSteadyStateAllocs(t *testing.T) {
	tp := topology.MustNew(3, []int{2, 3, 2}, []int{2, 2, 3})
	n := tp.NumProcessors()
	tms := make([]*traffic.Matrix, 4)
	for i := range tms {
		tms[i] = traffic.FromPermutation(traffic.RandomPermutation(n, stats.Stream(3, int64(i))))
	}
	for _, sel := range []core.Selector{core.Disjoint{}, core.RandomK{}} {
		r := core.NewRouting(tp, sel, 3, 1)
		lazy := NewEvaluator(r)
		lazy.MaxLoad(tms[0]) // warm scratch
		i := 0
		if got := testing.AllocsPerRun(20, func() {
			i++
			lazy.MaxLoad(tms[i%len(tms)])
		}); got != 0 {
			t.Errorf("%s: lazy Evaluator.MaxLoad allocates %.1f/op in steady state", sel.Name(), got)
		}
		c, err := core.CompileRouting(r, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		comp := NewCompiledEvaluator(c)
		comp.MaxLoad(tms[0])
		if got := testing.AllocsPerRun(20, func() {
			i++
			comp.MaxLoad(tms[i%len(tms)])
		}); got != 0 {
			t.Errorf("%s: CompiledEvaluator.MaxLoad allocates %.1f/op in steady state", sel.Name(), got)
		}
		ks := []int{1, 2, 4, tp.MaxPaths()}
		multi := NewMultiKEvaluator(core.NewRouting(tp, sel, tp.MaxPaths(), 1), ks)
		out := make([]float64, len(ks))
		multi.MaxLoads(tms[0], nil, out)
		if got := testing.AllocsPerRun(20, func() {
			i++
			multi.MaxLoads(tms[i%len(tms)], nil, out)
		}); got != 0 {
			t.Errorf("%s: MultiKEvaluator.MaxLoads allocates %.1f/op in steady state", sel.Name(), got)
		}
	}
}

// naiveMultiKLoads is the reference accumulation the multi-K kernel
// must reproduce bit for bit, written row-major and per column: pairs
// in flow order; a column whose path count b is below the pair's X adds
// count·(amount/b) once per link of the pair's first b paths; a
// full-set column adds amount/X once per link occurrence of all X
// paths.
func naiveMultiKLoads(tp *topology.Topology, r *core.Routing, k int, tm *traffic.Matrix) []float64 {
	loads := make([]float64, tp.NumLinks())
	_, umulti := r.Selector().(core.UMulti)
	for _, f := range tm.Flows() {
		x := tp.NumPathsBetween(f.Src, f.Dst)
		b := k
		if !r.Selector().MultiPath() {
			b = 1
		}
		if b >= x || umulti {
			all := make([]int, x)
			for i := range all {
				all[i] = i
			}
			for _, l := range core.AppendPathSetLinks(tp, f.Src, f.Dst, all, nil) {
				loads[l] += f.Amount / float64(x)
			}
			continue
		}
		ps := core.NewRouting(tp, r.Selector(), b, r.Seed()).Paths(f.Src, f.Dst)
		counts := map[topology.LinkID]int{}
		var order []topology.LinkID
		for _, l := range core.AppendPathSetLinks(tp, f.Src, f.Dst, ps, nil) {
			if counts[l] == 0 {
				order = append(order, l)
			}
			counts[l]++
		}
		share := f.Amount / float64(b)
		for _, l := range order {
			loads[l] = loads[l] + float64(counts[l])*share
		}
	}
	return loads
}

// TestMultiKEvaluatorMatchesNaiveFold pins the link-major kernel (the
// deferred per-link folds, the once-per-sample max, the stripe clear)
// bit for bit to the row-major reference accumulation, for the lazy
// and compiled sources alike, over repeated samples.
func TestMultiKEvaluatorMatchesNaiveFold(t *testing.T) {
	topos := []*topology.Topology{
		topology.MustNew(3, []int{2, 3, 2}, []int{2, 2, 3}),
		topology.MustNew(3, []int{4, 4, 6}, []int{1, 4, 4}),
	}
	for _, tp := range topos {
		var ks []int
		for _, k := range []int{1, 2, 3, 5, 7, 12} {
			if k < tp.MaxPaths()-1 {
				ks = append(ks, k)
			}
		}
		ks = append(ks, tp.MaxPaths()-1)
		n := tp.NumProcessors()
		for _, sel := range []core.Selector{core.Shift1{}, core.Disjoint{}, core.RandomK{}, core.DModK{}} {
			r := core.NewRouting(tp, sel, ks[len(ks)-1], 5)
			c, err := core.CompileRouting(r, 1<<30)
			if err != nil {
				t.Fatal(err)
			}
			lazy := NewMultiKEvaluator(r, ks)
			comp := NewCompiledMultiKEvaluator(c, ks)
			outL := make([]float64, len(ks))
			outC := make([]float64, len(ks))
			for sample := 0; sample < 3; sample++ {
				tm := traffic.FromPermutation(traffic.RandomPermutation(n, stats.Stream(17, int64(sample))))
				lazy.MaxLoads(tm, nil, outL)
				comp.MaxLoads(tm, nil, outC)
				for j, k := range ks {
					want := naiveMultiKLoads(tp, r, k, tm)
					wantMax := 0.0
					for _, v := range want {
						wantMax = math.Max(wantMax, v)
					}
					if outL[j] != wantMax || outC[j] != wantMax {
						t.Fatalf("%s on %s K=%d sample %d: max lazy %v compiled %v, reference %v", sel.Name(), tp, k, sample, outL[j], outC[j], wantMax)
					}
					for name, ev := range map[string]*MultiKEvaluator{"lazy": lazy, "compiled": comp} {
						got := ev.Loads(j)
						for l := range want {
							if got[l] != want[l] {
								t.Fatalf("%s %s on %s K=%d sample %d: load[%d] = %v, reference %v", name, sel.Name(), tp, k, sample, l, got[l], want[l])
							}
						}
					}
				}
			}
		}
	}
}

// TestMultiKEvaluatorReactivation pins that a column skipped by some
// calls comes back clean: the stripe clear wipes every column, so
// re-activating a frozen column yields the same value as a fresh walk.
func TestMultiKEvaluatorReactivation(t *testing.T) {
	tp := topology.MustNew(3, []int{2, 2, 4}, []int{1, 2, 2})
	ks := []int{1, 2, 3}
	n := tp.NumProcessors()
	r := core.NewRouting(tp, core.Disjoint{}, 3, 0)
	ev := NewMultiKEvaluator(r, ks)
	out := make([]float64, len(ks))
	want := make([]float64, len(ks))
	actives := [][]bool{{true, true, true}, {false, true, false}, {false, false, true}, {true, true, true}}
	for sample, active := range actives {
		tm := traffic.FromPermutation(traffic.RandomPermutation(n, stats.Stream(23, int64(sample))))
		ev.MaxLoads(tm, active, out)
		NewMultiKEvaluator(r, ks).MaxLoads(tm, nil, want)
		for j := range ks {
			if active[j] && out[j] != want[j] {
				t.Fatalf("sample %d column %d: %v after re-activation, fresh %v", sample, j, out[j], want[j])
			}
		}
	}
}
