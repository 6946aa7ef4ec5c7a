package flow

import (
	"fmt"
	"sync"

	"xgftsim/internal/core"
	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

// MultiKEvaluator computes, in one walk of a traffic matrix, the
// maximum link load of the same scheme at every K of an ascending
// grid. It exploits the selectors' prefix-nesting guarantee
// (core.PrefixNested): a pair's path set at limit K is a prefix of its
// set at K+1, so one derivation of the longest needed prefix serves
// every K column. Per pair it accumulates link-hit counts path by
// path and, at each K boundary of the grid, folds count·amount/min(K,X)
// into that K's load vector; columns whose boundary reaches a level's
// full path count replay that level's X paths with direct adds (the
// same adds as a per-K evaluator). Loads are stored link-major — link
// l's K columns share one stripe — so a pair's folds across all its
// boundaries stay within a few cache lines per link. Touched-link
// lists replace the O(numLinks) clear, and the maximum is folded once
// per sample over the touched stripes (loads only grow within a
// sample, so that equals the running maximum of every add).
//
// Columns whose effective path count is the full X at EVERY NCA level
// (K >= MaxPaths for limited schemes; always for UMULTI) route exactly
// like UMULTI, and by Theorem 1 MLOAD(UMULTI, TM) == OLOAD(TM) on
// XGFTs. Those columns skip the per-pair walk entirely: one
// subtree-cut optimalLoad pass per call produces their value, turning
// the grid's most expensive column (X paths per pair) into its
// cheapest. The result is bit-identical to OptimalLoad and agrees
// with a per-K evaluator's repeated-add MLOAD to ulp-level rounding.
//
// The evaluator reuses all scratch across calls and is not safe for
// concurrent use; create one per goroutine (see MultiKExperiment).
type MultiKEvaluator struct {
	topo *topology.Topology
	ks   []int
	c    *core.CompiledRouting // compiled table at Kmax, or nil
	r    *core.Routing         // lazy source when c == nil
	ps   *core.PathScratch
	gen  *core.IndexGen // closed-form lazy indices; nil for randomized/custom selectors

	class selClass
	// oload[j]: column j's effective count is X at every level, so its
	// value is OLOAD (Theorem 1) — computed per call, never walked.
	oload []bool

	numLinks int
	nK       int
	// backing[l·nK+j] is link l's load under column j: one nK-wide
	// stripe per link.
	backing []float64
	walk    []int // active, non-Theorem-1 columns of the current call

	// Per-sample touched bookkeeping: stamp[l] == epoch marks that link
	// l's stripe was loaded this sample; touched lists those links, for
	// the end-of-sample max fold and the next call's stripe clear.
	stamp   []uint32
	epoch   uint32
	touched []int32

	// Per-pair fold state: slot[l] is 1 + link l's index in pairTouched
	// (0: not hit by this pair); per slot, hits counts the link's hits so
	// far and foldFrom is the first flat fold row (multiKPlan.rows) not
	// yet folded into its stripe. shares[i] is amount/b of fold row i.
	slot        []int32
	pairTouched []int32
	hits        []int32
	foldFrom    []int32
	shares      []float64

	plans []multiKPlan // indexed by NCA level, rebuilt per call

	idxBuf      []int32
	pathBuf     []int
	linkBuf     []int32
	fullLinkBuf []int32
	col         []float64 // Loads gather buffer
	allActive   []bool
	opt         optScratch
}

// selClass tells how a scheme's effective per-pair path count depends
// on K: single-path schemes always use 1, UMULTI always all X, limited
// multipath schemes min(K, X).
type selClass int

const (
	classLimited selClass = iota
	classSingle
	classUnlimited
)

func classify(sel core.Selector) selClass {
	if _, ok := sel.(core.UMulti); ok {
		return classUnlimited
	}
	if !sel.MultiPath() {
		return classSingle
	}
	return classLimited
}

// multiKPlan is the per-NCA-level evaluation plan for one MaxLoads
// call: which active K columns fold at which path-count boundary (all
// boundaries < X, ascending), which active columns use the full X-path
// set, and how long the derived prefix must be.
type multiKPlan struct {
	x      int
	stride int     // links per path segment (2·level)
	allIdx []int32 // canonical 0..x-1, for the lazy full-set pass
	bPre   int     // longest prefix any fold boundary needs (0: none)
	// bounds are the distinct fold boundaries, ascending; the fold
	// columns, in grid order, are rows, those of bounds[bi] ending at
	// rowEnd[bi] (and starting at rowEnd[bi-1], or 0).
	bounds []int
	rowEnd []int
	rows   []int
	full   []int
}

// NewMultiKEvaluator creates a lazy multi-K evaluator for the routing
// r over the ascending, strictly increasing K grid ks (every K >= 1).
// The routing's own configured K is superseded by the grid: paths are
// derived with explicit per-call limits. The routing's selector must
// be prefix-nested (core.PrefixNested) or this panics.
func NewMultiKEvaluator(r *core.Routing, ks []int) *MultiKEvaluator {
	e := newMultiK(r.Topology(), r.Selector(), ks)
	e.r = r
	e.gen = core.NewIndexGen(r.Topology(), r.Selector(), ks[len(ks)-1])
	if e.gen == nil {
		e.ps = core.NewPathScratch()
	}
	return e
}

// NewCompiledMultiKEvaluator creates a multi-K evaluator walking the
// shared compiled table c, which must hold a healthy routing compiled
// with a path limit of at least the grid's largest K (so that every
// prefix the grid needs is materialized). The table's path-major
// layout (CompiledRouting.PairPathLinks) makes each fold a contiguous
// scan.
func NewCompiledMultiKEvaluator(c *core.CompiledRouting, ks []int) *MultiKEvaluator {
	if c.Repaired() != nil {
		panic("flow: MultiKEvaluator requires a healthy compiled table (repaired path sets are not K-nested)")
	}
	r := c.Routing()
	e := newMultiK(c.Topology(), r.Selector(), ks)
	if rk := r.K(); rk > 0 && rk < ks[len(ks)-1] && classify(r.Selector()) == classLimited {
		panic(fmt.Sprintf("flow: compiled table built at K=%d cannot serve grid up to K=%d", rk, ks[len(ks)-1]))
	}
	e.c = c
	return e
}

func newMultiK(t *topology.Topology, sel core.Selector, ks []int) *MultiKEvaluator {
	if len(ks) == 0 {
		panic("flow: MultiKEvaluator requires a non-empty K grid")
	}
	for i, k := range ks {
		if k < 1 || (i > 0 && k <= ks[i-1]) {
			panic(fmt.Sprintf("flow: MultiKEvaluator K grid must be ascending and >= 1, got %v", ks))
		}
	}
	if !core.PrefixNested(sel) {
		panic(fmt.Sprintf("flow: selector %s does not guarantee prefix nesting; MultiKEvaluator requires it", sel.Name()))
	}
	nK := len(ks)
	nL := t.NumLinks()
	e := &MultiKEvaluator{
		topo:     t,
		ks:       append([]int(nil), ks...),
		class:    classify(sel),
		numLinks: nL,
		nK:       nK,
		backing:  make([]float64, nK*nL),
		stamp:    make([]uint32, nL),
		slot:     make([]int32, nL),
		plans:    make([]multiKPlan, t.H()+1),
		allActive: func() []bool {
			a := make([]bool, nK)
			for i := range a {
				a[i] = true
			}
			return a
		}(),
	}
	e.oload = make([]bool, nK)
	for j, k := range ks {
		e.oload[j] = e.effCount(k, t.MaxPaths()) == t.MaxPaths()
	}
	for lev := 1; lev <= t.H(); lev++ {
		p := &e.plans[lev]
		p.x = t.WProd(lev)
		p.stride = 2 * lev
		p.allIdx = make([]int32, p.x)
		for i := range p.allIdx {
			p.allIdx[i] = int32(i)
		}
	}
	return e
}

// Ks returns the evaluator's K grid.
func (e *MultiKEvaluator) Ks() []int { return e.ks }

// effCount is the scheme's effective path count at limit k for a pair
// with x shortest paths.
func (e *MultiKEvaluator) effCount(k, x int) int {
	switch e.class {
	case classSingle:
		return 1
	case classUnlimited:
		return x
	}
	if k > x {
		return x
	}
	return k
}

// buildPlans lists this call's walked columns and groups them, at every
// NCA level, into fold boundaries (< X) and full-set columns (= X).
func (e *MultiKEvaluator) buildPlans(active []bool) {
	e.walk = e.walk[:0]
	for j := range e.ks {
		if active[j] && !e.oload[j] {
			e.walk = append(e.walk, j)
		}
	}
	for lev := 1; lev < len(e.plans); lev++ {
		p := &e.plans[lev]
		p.bounds, p.rowEnd, p.rows = p.bounds[:0], p.rowEnd[:0], p.rows[:0]
		p.full = p.full[:0]
		p.bPre = 0
		for _, j := range e.walk {
			b := e.effCount(e.ks[j], p.x)
			if b >= p.x {
				p.full = append(p.full, j)
				continue
			}
			if n := len(p.bounds); n == 0 || p.bounds[n-1] != b {
				p.bounds = append(p.bounds, b)
				p.rowEnd = append(p.rowEnd, len(p.rows))
			}
			p.rows = append(p.rows, j)
			p.rowEnd[len(p.rowEnd)-1]++
			p.bPre = b // ks ascending ⇒ boundaries non-decreasing
		}
	}
}

// MaxLoads computes MLOAD at every active K of the grid under tm,
// writing out[j] for each j with active[j] true and leaving frozen
// entries untouched (nil active means all). The active set may change
// between calls: the clear wipes whole stripes, so a column skipped by
// one call holds no loads by the next.
func (e *MultiKEvaluator) MaxLoads(tm *traffic.Matrix, active []bool, out []float64) {
	if tm.N != e.topo.NumProcessors() {
		panic(fmt.Sprintf("flow: traffic matrix over %d nodes, topology has %d", tm.N, e.topo.NumProcessors()))
	}
	if active == nil {
		active = e.allActive
	}
	nAct, nWalk, nOpt := 0, 0, 0
	for j, a := range active {
		if !a {
			continue
		}
		nAct++
		if e.oload[j] {
			nOpt++
		} else {
			nWalk++
		}
	}
	met.multikWalks.Inc()
	met.multikColumns.Add(int64(nAct))
	// Theorem-1 columns: one subtree-cut pass serves them all; their
	// stripe entries stay untouched (always zero).
	if nOpt > 0 {
		ol := e.opt.optimalLoad(e.topo, tm)
		for j := range e.ks {
			if active[j] && e.oload[j] {
				out[j] = ol
			}
		}
	}
	if nWalk == 0 {
		return
	}
	met.pairsEvaluated.Add(int64(len(tm.Flows())))
	// Clear the stripes the previous sample loaded, then stamp a fresh
	// epoch. Whole stripes, so columns this call skips come back clean.
	nK := e.nK
	for _, l := range e.touched {
		clear(e.backing[int(l)*nK : int(l)*nK+nK])
	}
	e.touched = e.touched[:0]
	e.epoch++
	if e.epoch == 0 { // wrapped: stamps from the old era are ambiguous
		clear(e.stamp)
		e.epoch = 1
	}
	e.buildPlans(active)
	for _, f := range tm.Flows() {
		e.evalPair(f.Src, f.Dst, f.Amount)
	}
	// Loads only grow within a sample, so the maximum over the touched
	// stripes' final values is the running maximum of every add.
	for _, j := range e.walk {
		out[j] = 0
	}
	for _, l := range e.touched {
		stripe := e.backing[int(l)*nK : int(l)*nK+nK]
		for _, j := range e.walk {
			if v := stripe[j]; v > out[j] {
				out[j] = v
			}
		}
	}
}

func (e *MultiKEvaluator) evalPair(src, dst int, amount float64) {
	k := e.topo.NCALevel(src, dst)
	p := &e.plans[k]
	if len(p.bounds) > 0 {
		if e.c != nil {
			links, _, _ := e.c.PairPathLinks(src, dst)
			e.walkBounds(p, links, amount)
		} else {
			if e.gen != nil {
				e.idxBuf = e.gen.Append(e.idxBuf[:0], src, dst, k, p.bPre)
				e.linkBuf = topology.AppendPathSetLinks(e.topo, e.linkBuf[:0], src, dst, k, e.idxBuf)
			} else {
				e.pathBuf = e.r.AppendPathsLimitedScratch(e.ps, e.pathBuf[:0], src, dst, p.bPre)
				e.linkBuf = topology.AppendPathSetLinks(e.topo, e.linkBuf[:0], src, dst, k, e.pathBuf)
			}
			e.walkBounds(p, e.linkBuf, amount)
		}
	}
	if len(p.full) > 0 {
		links := e.fullLinkBuf
		if e.c != nil {
			links, _, _ = e.c.PairPathLinks(src, dst)
		} else {
			e.fullLinkBuf = topology.AppendPathSetLinks(e.topo, e.fullLinkBuf[:0], src, dst, k, p.allIdx)
			links = e.fullLinkBuf
		}
		e.addFull(p, links, amount/float64(p.x))
	}
}

// touch stamps link l's stripe as loaded this sample.
func (e *MultiKEvaluator) touch(l int32) {
	if e.stamp[l] != e.epoch {
		e.stamp[l] = e.epoch
		e.touched = append(e.touched, l)
	}
}

// walkBounds folds count·amount/b into every row grouped at each fold
// boundary b, count being how many of the pair's first b paths cross
// the link: exactly one add per (row, link) per pair. links must cover
// at least p.bPre path segments of p.stride links each.
//
// Paths are visited in order, so a link's count at boundary bi is final
// once a hit beyond bi arrives. Each link's folds are therefore
// deferred until its count changes or the pair ends, and then applied
// boundary after boundary to its stripe while it is in cache; links hit
// by one path only (most of them) fold all their boundaries at once.
func (e *MultiKEvaluator) walkBounds(p *multiKPlan, links []int32, amount float64) {
	e.shares = e.shares[:0]
	start := 0
	for bi, b := range p.bounds {
		share := amount / float64(b)
		for range p.rows[start:p.rowEnd[bi]] {
			e.shares = append(e.shares, share)
		}
		start = p.rowEnd[bi]
	}
	bi := 0
	for path := 0; path < p.bPre; path++ {
		for path >= p.bounds[bi] {
			bi++
		}
		// A hit on a path of boundary group bi makes the link's counts
		// at every earlier boundary final; from is bi's first flat row.
		from := 0
		if bi > 0 {
			from = p.rowEnd[bi-1]
		}
		for _, l := range links[path*p.stride : (path+1)*p.stride] {
			s := e.slot[l] - 1
			if s < 0 {
				e.pairTouched = append(e.pairTouched, l)
				e.hits = append(e.hits, 1)
				e.foldFrom = append(e.foldFrom, int32(from))
				e.slot[l] = int32(len(e.pairTouched))
				e.touch(l)
				continue
			}
			if done := int(e.foldFrom[s]); done < from {
				e.fold(p, l, e.hits[s], done, from)
				e.foldFrom[s] = int32(from)
			}
			e.hits[s]++
		}
	}
	for s, l := range e.pairTouched {
		e.fold(p, l, e.hits[s], int(e.foldFrom[s]), len(p.rows))
		e.slot[l] = 0
	}
	e.pairTouched = e.pairTouched[:0]
	e.hits = e.hits[:0]
	e.foldFrom = e.foldFrom[:0]
}

// fold adds count·shares[i] to link l's entry of fold row rows[i] for
// every flat row i in [lo, hi).
func (e *MultiKEvaluator) fold(p *multiKPlan, l, count int32, lo, hi int) {
	stripe := e.backing[int(l)*e.nK : int(l)*e.nK+e.nK]
	c := float64(count)
	shares := e.shares[lo:hi]
	for i, row := range p.rows[lo:hi] {
		stripe[row] = stripe[row] + c*shares[i]
	}
}

// addFull replays the pair's full path set into the full-set rows with
// direct per-link adds — the same adds a per-K evaluator at any K >= X
// performs (every add of a (row, link) is the same share, so their
// order is immaterial), keeping full-set columns bit-identical to
// per-cell evaluation.
func (e *MultiKEvaluator) addFull(p *multiKPlan, links []int32, share float64) {
	nK := e.nK
	for _, l := range links {
		e.touch(l)
		stripe := e.backing[int(l)*nK : int(l)*nK+nK]
		for _, row := range p.full {
			stripe[row] += share
		}
	}
}

// Loads gathers the load vector of the given K column as computed by
// the most recent MaxLoads call, for which the column was active, into
// an evaluator-owned slice valid until the next Loads or MaxLoads call.
// Theorem-1 columns are never walked, so theirs is all-zero. Intended
// for differential tests.
func (e *MultiKEvaluator) Loads(j int) []float64 {
	if e.col == nil {
		e.col = make([]float64, e.numLinks)
	}
	for l := range e.col {
		e.col[l] = e.backing[l*e.nK+j]
	}
	return e.col
}

// OptimalLoad computes OLOAD(TM) reusing evaluator-resident scratch —
// OLOAD is routing-independent, so one call serves every K column of a
// sample.
func (e *MultiKEvaluator) OptimalLoad(tm *traffic.Matrix) float64 {
	return e.opt.optimalLoad(e.topo, tm)
}

// MultiKExperiment is the paper's permutation study for a whole
// (topology, scheme) column of a K grid at once: one permutation
// stream, one compile and one evaluator walk serve every K, with the
// vector adaptive sampler freezing each K's accumulator exactly where
// an independent per-K run would have stopped. Per-K means, sample
// counts and half-widths are therefore identical to running
// flow.Experiment once per K up to ulp-level rounding: count-folded
// prefix columns add count·share instead of count repeated shares,
// and columns with K >= X at every level short-circuit to OLOAD
// (Theorem 1) instead of replaying X paths per pair.
type MultiKExperiment struct {
	Topo *topology.Topology
	Sel  core.Selector
	// Ks is the ascending, strictly increasing K grid (every K >= 1).
	Ks []int
	// Seeds, PermSeed, Sampling, Compile, CompileBudget behave exactly
	// as in Experiment; the compile policy is applied once at the
	// grid's largest K.
	Seeds         []int64
	PermSeed      int64
	Sampling      stats.AdaptiveConfig
	Compile       CompileMode
	CompileBudget int64
}

// Run executes the experiment, returning one accumulator per K in grid
// order.
func (x MultiKExperiment) Run() stats.AdaptiveVecResult {
	seeds := x.Seeds
	if len(seeds) == 0 {
		if deterministicSelector(x.Sel) {
			seeds = []int64{0}
		} else {
			seeds = []int64{101, 202, 303, 404, 505}
		}
	}
	kmax := x.Ks[len(x.Ks)-1]
	pools := make([]*sync.Pool, len(seeds))
	for i, s := range seeds {
		r := core.NewRouting(x.Topo, x.Sel, kmax, s)
		c := Experiment{Topo: x.Topo, Sel: x.Sel, K: kmax, Sampling: x.Sampling,
			Compile: x.Compile, CompileBudget: x.CompileBudget}.compiled(r)
		pools[i] = &sync.Pool{New: func() any {
			if c != nil {
				return NewCompiledMultiKEvaluator(c, x.Ks)
			}
			return NewMultiKEvaluator(r, x.Ks)
		}}
	}
	n := x.Topo.NumProcessors()
	nK := len(x.Ks)
	tmpPool := sync.Pool{New: func() any { s := make([]float64, nK); return &s }}
	sample := func(i int, out []float64, active []bool) {
		rng := stats.Stream(x.PermSeed, int64(i))
		tm := traffic.FromPermutation(traffic.RandomPermutation(n, rng))
		for j := range out {
			if active[j] {
				out[j] = 0
			}
		}
		tp := tmpPool.Get().(*[]float64)
		tmp := *tp
		for _, p := range pools {
			ev := p.Get().(*MultiKEvaluator)
			ev.MaxLoads(tm, active, tmp)
			p.Put(ev)
			for j := range out {
				if active[j] {
					out[j] += tmp[j]
				}
			}
		}
		tmpPool.Put(tp)
		for j := range out {
			if active[j] {
				out[j] /= float64(len(pools))
			}
		}
	}
	return stats.SampleAdaptiveVec(x.Sampling, nK, sample)
}
