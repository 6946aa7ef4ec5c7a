package main

import (
	"fmt"
	"sync"

	"xgftsim/internal/core"
	"xgftsim/internal/experiments"
	"xgftsim/internal/flow"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

// faultsDigest is the digest of the failure-sweep table for the
// default seed at the benchmark's scale.
const faultsDigest = "1e539e0cffaa8789"

// faultsScale is the failure sweep's scale: quick sampling with the cap
// raised to 320, at or above the panel's 288 endpoints, so CompileAuto
// compiles each column's healthy table and patches it per fault
// placement; four fault placements per fraction over 0, 2, 5 and 10%
// failed cables.
func faultsScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.Workers = workers
	sc.Sampling.Parallelism = workers
	sc.Sampling.MaxSamples = 320
	sc.FaultSeeds = 4
	sc.FaultFractions = []float64{0, 0.02, 0.05, 0.10}
	return sc
}

// failureColumn is one scheme × K column of the failure sweep.
type failureColumn struct {
	sel core.Selector
	k   int
}

// failureColumns mirrors the experiments package's failure grid.
func failureColumns() []failureColumn {
	return []failureColumn{
		{core.DModK{}, 1}, {core.Shift1{}, 2}, {core.Shift1{}, 4}, {core.Disjoint{}, 2},
		{core.Disjoint{}, 4}, {core.RandomK{}, 2}, {core.RandomK{}, 4}, {core.UMulti{}, 1},
	}
}

// faultSeedsFor mirrors the sweep's fault-placement seeds.
func faultSeedsFor(sc experiments.Scale, seed int64) []int64 {
	out := make([]int64, sc.FaultSeeds)
	for i := range out {
		out[i] = seed + int64(i)*1000003
	}
	return out
}

func faultsTopology() *topology.Topology {
	t, err := topology.FromPaper(topology.Paper24Port2Tree)
	if err != nil {
		panic(err)
	}
	return t
}

// faultsSetup builds what the sweep shares across fault placements:
// per column the healthy compiled tables and their delta repairers.
func faultsSetup(t *topology.Topology, sc experiments.Scale, seed int64) {
	for _, c := range failureColumns() {
		flow.FailureExperiment{Topo: t, Sel: c.sel, K: c.k, PermSeed: seed, Sampling: sc.Sampling}.NewBase()
	}
}

func runFaults(e env) (*report, error) {
	rep := &report{layers: map[string]metric{}}
	sc := faultsScale()
	var t *topology.Topology
	rep.setups = repeatSetup(5, func() {
		t = faultsTopology()
		faultsSetup(t, sc, e.seed)
	})
	var tbl *experiments.Table
	pass := func() {
		rep.work = addWork(rep.work, measureWork(func() { tbl = experiments.FailureSweep(t, sc, e.seed) }))
		checkFaults(rep, tbl)
	}
	measurePasses(rep, e, pass)
	if e.seed == defaultSeed {
		d := tableDigest(tbl)
		rep.addCheck("table digest", d == faultsDigest, "seed %d digest %s, recorded %s", e.seed, d, faultsDigest)
	}
	compiles := counterValue(rep.work, "core.compiles")
	patches := counterValue(rep.work, "core.delta_patches")
	rep.addInfo("core.compiles", float64(compiles), "count", fmt.Sprintf("over %d passes (compiled regime expects > 0)", len(rep.passes)))
	rep.addInfo("core.delta_patches", float64(patches), "count", "per-placement delta patches (expects > 0)")
	if cp := counterValue(rep.work, "core.compiled_pairs"); cp > 0 {
		rep.addInfo("flow.evaluated_per_compiled", float64(counterValue(rep.work, "flow.pairs_evaluated"))/float64(cp), "ratio",
			fmt.Sprintf("pairs evaluated / pairs compiled, base %d compiled pairs", cp))
	}
	if e.traced {
		tr := newTracer()
		ct := &cellTimes{}
		var grid [][]experiments.Cell
		var patched int64
		wall := timeIt(func() { grid, patched = faultsReplay(tr, ct, t, sc, e.seed) })
		ok, detail := cellsEqual(tbl, grid)
		rep.addCheck("traced replay equals table", ok, "%s", detail)
		spans := tr.snapshot()
		sum := summarize(spans)
		n := float64(t.NumProcessors())
		l := rep.layers
		l["core.compile_s"] = metric{meanSpan(sum, "core.compile", 1e9), "s"}
		l["core.repairer_s"] = metric{meanSpan(sum, "core.repairer", 1e9), "s"}
		l["core.repair_us"] = metric{meanSpan(sum, "core.repair", 1e3), "us"}
		l["core.delta_patch_ms"] = metric{meanSpan(sum, "core.delta_patch", 1e6), "ms"}
		l["core.patched_pairs"] = metric{float64(patched), "count"}
		l["flow.compiled_ns_per_pair"] = metric{meanSpan(sum, "flow.compiled", 1) / n, "ns"}
		l["flow.degraded_ns_per_pair"] = metric{meanSpan(sum, "flow.degraded", 1) / n, "ns"}
		l["traffic.perm_ms"] = metric{meanSpan(sum, "traffic.perm", 1e6), "ms"}
		samples := 0
		if st := sum["stats.sample"]; st != nil {
			samples = st.count
		}
		l["stats.samples"] = metric{float64(samples), "count"}
		if cp := counterValue(rep.work, "core.compiled_pairs"); cp > 0 {
			l["flow.evaluated_per_compiled"] = metric{float64(counterValue(rep.work, "flow.pairs_evaluated")) / float64(cp), "ratio"}
		}
		if err := finishSweepTrace(rep, e, "faults-compiled", spans, sum, ct, wall); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// checkFaults applies the sweep's invariants to one pass's table: every
// cell finite and positive, and unlimited multipath on the healthy
// fabric exactly at the optimum (Theorem 1).
func checkFaults(rep *report, tbl *experiments.Table) {
	checkCellsPositive(rep, tbl)
	cols := failureColumns()
	um := tbl.Cells[0][len(cols)-1]
	rep.addCheck("0%-fault UMULTI cell exactly 1.0", tbl.XValues[0] == "0%" && um.Mean == 1.0, "row %s mean %v", tbl.XValues[0], um.Mean)
}

// faultBase is one column's fault-independent state, built by direct
// core calls.
type faultBase struct {
	routings []*core.Routing
	reps     []*core.DeltaRepairer
}

// faultsReplay recomputes the failure sweep through direct calls into
// core (compile, delta repairer, repair, delta patch) and flow
// (compiled and degraded evaluators) with a span around each call. It
// mirrors experiments.FailureSweep and flow.FailureExperiment, so its
// cells must equal the table's bit for bit. It also returns how many
// pairs the delta patches re-selected.
func faultsReplay(tr *tracer, ct *cellTimes, t *topology.Topology, sc experiments.Scale, seed int64) ([][]experiments.Cell, int64) {
	cols := failureColumns()
	fracs := sc.FaultFractions
	fseeds := faultSeedsFor(sc, seed)
	n := t.NumProcessors()
	budget := int64(sc.Sampling.MaxSamples) * int64(n) // flow's patch-vs-lazy threshold
	bases := make([]*faultBase, len(cols))
	onces := make([]sync.Once, len(cols))
	grid := make([][]experiments.Cell, len(fracs))
	for i := range grid {
		grid[i] = make([]experiments.Cell, len(cols))
	}
	var mu sync.Mutex
	var patched int64
	runPool(len(fracs)*len(cols), ct, func(x int) {
		fi, ci := x/len(cols), x%len(cols)
		col := cols[ci]
		cell := tr.begin("experiments.cell", 0)
		defer cell.end()
		onces[ci].Do(func() {
			b := &faultBase{}
			for _, s := range selectorSeeds(col.sel) {
				r := core.NewRouting(t, col.sel, col.k, s)
				sp := tr.begin("core.compile", cell.id)
				c, err := core.CompileRouting(r, flow.DefaultCompileBudget)
				sp.end()
				if err != nil {
					panic(err)
				}
				sp = tr.begin("core.repairer", cell.id)
				d, err := core.NewDeltaRepairer(c)
				sp.end()
				if err != nil {
					panic(err)
				}
				b.routings = append(b.routings, r)
				b.reps = append(b.reps, d)
			}
			bases[ci] = b
		})
		b := bases[ci]
		seeds := fseeds
		if fracs[fi] == 0 {
			seeds = seeds[:1]
		}
		var acc stats.Accumulator
		for _, fs := range seeds {
			faults, err := topology.RandomCableFaultFraction(t, fs, fracs[fi])
			if err != nil {
				panic(err)
			}
			evals := make([]func(*traffic.Matrix, int64) float64, len(b.routings))
			for i, r := range b.routings {
				sp := tr.begin("core.repair", cell.id)
				rr := r.MustRepair(faults)
				sp.end()
				if d := b.reps[i]; int64(d.AffectedCount(faults)) <= budget {
					sp = tr.begin("core.delta_patch", cell.id)
					c, err := d.CompileRepairedDelta(rr)
					sp.end()
					if err != nil {
						panic(err)
					}
					mu.Lock()
					patched += int64(c.PatchedPairs())
					mu.Unlock()
					evals[i] = pooledEval(tr, "flow.compiled", func() maxLoader { return flow.NewCompiledEvaluator(c) })
				} else {
					evals[i] = pooledEval(tr, "flow.degraded", func() maxLoader { return flow.NewDegradedEvaluator(rr) })
				}
			}
			sp := tr.begin("stats.sampler", cell.id)
			res := stats.SampleAdaptive(sc.Sampling, func(i int) float64 {
				smp := tr.begin("stats.sample", sp.id)
				defer smp.end()
				tm := replayPerm(tr, smp.id, n, seed, i)
				sum := 0.0
				for _, ev := range evals {
					sum += ev(tm, smp.id)
				}
				return sum / float64(len(evals))
			})
			sp.end()
			acc.Add(res.Acc.Mean())
		}
		c := experiments.Cell{Mean: acc.Mean(), Samples: acc.N()}
		if acc.N() > 1 {
			c.HalfWidth = acc.ConfidenceHalfWidth(0.99)
		}
		grid[fi][ci] = c
	})
	return grid, patched
}

// maxLoader is the evaluator method the replays call.
type maxLoader interface {
	MaxLoad(tm *traffic.Matrix) float64
}

// pooledEval returns a concurrency-safe max-load function over a pool
// of evaluators, each call under a span named name below parent.
func pooledEval(tr *tracer, name string, mk func() maxLoader) func(*traffic.Matrix, int64) float64 {
	pool := &sync.Pool{New: func() any { return mk() }}
	return func(tm *traffic.Matrix, parent int64) float64 {
		ev := pool.Get().(maxLoader)
		sp := tr.begin(name, parent)
		v := ev.MaxLoad(tm)
		sp.end()
		pool.Put(ev)
		return v
	}
}
