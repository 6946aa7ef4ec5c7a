package main

import (
	"xgftsim/internal/core"
	"xgftsim/internal/experiments"
	"xgftsim/internal/flit"
	"xgftsim/internal/obs"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

// flitDigest is the digest of the Table 1 and adaptive-K tables at the
// quick scale. The flit protocol fixes its own workload seeds, so the
// digest holds for every benchmark seed and is checked on every pass.
const flitDigest = "9b83b7433f449fce"

// flitScale is the quick flit protocol (2000 warm-up and 6000 measured
// cycles, eight offered loads, one workload seed) on the benchmark's
// worker bound.
func flitScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.Workers = workers
	return sc
}

// flitCell is one saturation search of the flit sweep: a routing, a
// traffic pattern and the engine options, run over the load ladder.
type flitCell struct {
	table int // 0: Table 1, 1: adaptive-K
	row   int
	col   int
	cfg   flit.Config
}

// table1Cells mirrors experiments.Table1: d-mod-k once, the multipath
// schemes at K in {1,2,4,8}, on XGFT(3;4,4,8;1,4,4) under the fixed
// uniform assignment of workload seed 0.
func table1Cells(sc experiments.Scale) []flitCell {
	t, err := topology.FromPaper(topology.Paper8Port3Tree)
	if err != nil {
		panic(err)
	}
	schemes := []core.Selector{core.DModK{}, core.Shift1{}, core.RandomK{}, core.Disjoint{}}
	ks := []int{1, 2, 4, 8}
	pattern := traffic.NewPermutationPattern("uniform-assignment(seed=0)",
		traffic.RandomDerangementish(t.NumProcessors(), stats.Stream(0, 31)))
	mk := func(sel core.Selector, k int) flit.Config {
		return flit.Config{Routing: core.NewRouting(t, sel, k, 0), Pattern: pattern, Seed: 0,
			WarmupCycles: sc.FlitWarmup, MeasureCycles: sc.FlitMeasure}
	}
	var cells []flitCell
	for j, sel := range schemes {
		if !sel.MultiPath() {
			cells = append(cells, flitCell{0, -1, j, mk(sel, 1)})
		}
	}
	for i, k := range ks {
		for j, sel := range schemes {
			if sel.MultiPath() {
				cells = append(cells, flitCell{0, i, j, mk(sel, k)})
			}
		}
	}
	return cells
}

// adaptiveKCells mirrors experiments.AdaptiveK: six traffic scenarios ×
// three output selectors on XGFT(2;8,16;1,8), Disjoint K=4.
func adaptiveKCells(sc experiments.Scale) []flitCell {
	t := topology.MustNew(2, []int{8, 16}, []int{1, 8})
	n := t.NumProcessors()
	uniform := traffic.UniformPattern{N: n}
	hotspot := traffic.HotspotPattern{N: n, Hot: 0, Fraction: 0.2}
	m, err := traffic.AdversarialDModK(t)
	if err != nil {
		panic(err)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for _, f := range m.Flows() {
		perm[f.Src] = f.Dst
	}
	adversarial := traffic.NewPermutationPattern("adversarial(thm2)", perm)
	scenarios := []struct {
		pattern  traffic.Pattern
		vcs      int
		vcScheme flit.VCScheme
		burst    float64
	}{
		{uniform, 0, 0, 0},
		{hotspot, 0, 0, 0},
		{adversarial, 0, 0, 0},
		{uniform, 0, 0, 4},
		{hotspot, 2, flit.VCDestSubtree, 0},
		{hotspot, 2, flit.VCDownDigit, 0},
	}
	sels := []flit.OutputSelector{flit.SelectOblivious, flit.SelectAdaptiveK, flit.SelectAdaptive}
	var cells []flitCell
	for i, s := range scenarios {
		for j, sel := range sels {
			cells = append(cells, flitCell{1, i, j, flit.Config{
				Routing: core.NewRouting(t, core.Disjoint{}, 4, 0), Pattern: s.pattern, Seed: 0,
				WarmupCycles: sc.FlitWarmup, MeasureCycles: sc.FlitMeasure, Selector: sel,
				VirtualChannels: s.vcs, VCScheme: s.vcScheme, BurstMean: s.burst,
			}})
		}
	}
	return cells
}

// flitSetup builds both grids and expands the shared route table of
// every cell whose selector reads one, for all source-destination
// pairs: the work each sweep's first cycles would otherwise do lazily.
func flitSetup(sc experiments.Scale) []flitCell {
	cells := append(table1Cells(sc), adaptiveKCells(sc)...)
	for i := range cells {
		warmRoutes(&cells[i].cfg)
	}
	return cells
}

// warmRoutes installs a route table on cfg (as flit.Sweep would) and
// expands it for every pair; full adaptive routing reads none.
func warmRoutes(cfg *flit.Config) {
	if cfg.Selector == flit.SelectAdaptive {
		return
	}
	rt := flit.NewRouteTable(cfg.Routing, nil)
	n := cfg.Routing.Topology().NumProcessors()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if cfg.Selector == flit.SelectAdaptiveK {
				rt.PathIndicesFor(s, d)
			} else {
				rt.RoutesFor(s, d)
			}
		}
	}
	cfg.Routes = rt
}

func runFlit(e env) (*report, error) {
	rep := &report{layers: map[string]metric{}}
	sc := flitScale()
	var cells []flitCell
	rep.setups = repeatSetup(5, func() { cells = flitSetup(sc) })
	var t1, ak *experiments.Table
	pass := func() {
		rep.work = addWork(rep.work, measureWork(func() {
			t1 = experiments.Table1(sc)
			ak = experiments.AdaptiveK(sc)
		}))
		checkCellsPositive(rep, t1)
		checkCellsPositive(rep, ak)
		d := tableDigest(t1, ak)
		rep.addCheck("table digest", d == flitDigest, "digest %s, recorded %s", d, flitDigest)
	}
	measurePasses(rep, e, pass)
	unroutable, wedges := counterValue(rep.work, "flit.msgs_unroutable"), counterValue(rep.work, "flit.wedges")
	rep.addCheck("no unroutable messages", unroutable == 0, "%d dropped over %d runs", unroutable, counterValue(rep.work, "flit.runs"))
	rep.addCheck("no wedged runs", wedges == 0, "%d wedged", wedges)
	if e.traced {
		tr := newTracer()
		ct := &cellTimes{}
		var grids [2][][]experiments.Cell
		var work obs.Snapshot
		wall := timeIt(func() {
			work = measureWork(func() { grids = flitReplay(tr, ct, sc, cells) })
		})
		ok1, d1 := cellsEqual(t1, grids[0])
		ok2, d2 := cellsEqual(ak, grids[1])
		rep.addCheck("traced replay equals tables", ok1 && ok2, "Table 1: %s; adaptive-K: %s", d1, d2)
		spans := tr.snapshot()
		sum := summarize(spans)
		l := rep.layers
		runNs := 0.0
		if st := sum["flit.run"]; st != nil {
			runNs = float64(st.total)
			l["flit.run_s"] = metric{float64(st.total) / float64(st.count) / 1e9, "s"}
		}
		rt := timeIt(func() { flitSetup(sc) })
		l["flit.route_table_ms"] = metric{rt * 1e3, "ms"}
		cycles, flits := counterValue(work, "flit.cycles"), counterValue(work, "flit.flits_ejected")
		if cycles > 0 {
			l["flit.ns_per_cycle"] = metric{runNs / float64(cycles), "ns"}
		}
		if flits > 0 {
			l["flit.ns_per_flit"] = metric{runNs / float64(flits), "ns"}
		}
		l["flit.cycles"] = metric{float64(cycles), "count"}
		l["flit.flits_ejected"] = metric{float64(flits), "count"}
		l["flit.vc_stalls"] = metric{float64(counterValue(work, "flit.vc_stalls")), "count"}
		if err := finishSweepTrace(rep, e, "flit-table1", spans, sum, ct, wall); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// flitReplay reruns both grids through direct flit.Run calls, one per
// offered load, with a span around each, and returns each table's
// cells in its layout: Table 1 with d-mod-k replicated down its
// column, adaptive-K as scenarios × selectors.
func flitReplay(tr *tracer, ct *cellTimes, sc experiments.Scale, cells []flitCell) [2][][]experiments.Cell {
	vals := make([]float64, len(cells))
	errs := make([]error, len(cells))
	runPool(len(cells), ct, func(i int) {
		cell := tr.begin("experiments.cell", 0)
		defer cell.end()
		var results []flit.Result
		for _, load := range sc.Loads {
			cfg := cells[i].cfg
			cfg.OfferedLoad = load
			sp := tr.begin("flit.run", cell.id)
			r, err := flit.Run(cfg)
			sp.end()
			if err != nil {
				errs[i] = err
				return
			}
			results = append(results, r)
		}
		vals[i] = flit.MaxThroughput(results)
	})
	var grids [2][][]experiments.Cell
	grids[0] = make([][]experiments.Cell, 4)
	for i := range grids[0] {
		grids[0][i] = make([]experiments.Cell, 4)
	}
	grids[1] = make([][]experiments.Cell, 6)
	for i := range grids[1] {
		grids[1][i] = make([]experiments.Cell, 3)
	}
	for i, c := range cells {
		if errs[i] != nil {
			panic(errs[i])
		}
		cell := experiments.Cell{Mean: vals[i], Samples: 1}
		if c.row < 0 {
			for r := range grids[0] {
				grids[0][r][c.col] = cell
			}
			continue
		}
		grids[c.table][c.row][c.col] = cell
	}
	return grids
}
