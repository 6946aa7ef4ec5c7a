package core

import (
	"fmt"

	"xgftsim/internal/topology"
)

// Segment fill. compileSegment's job — every (src, dst) CSR row of a
// source block — has two structural regularities the generic per-pair
// loop (NCALevel + Selector.Select + AppendPathSetLinks for each dst)
// cannot exploit:
//
//  1. For a fixed source, the destination axis partitions into at most
//     2h+1 maximal intervals of constant NCA level (the nested aligned
//     subtree blocks of the source), so per-level constants — path
//     count, link stride, radix tables, the disjoint offset table —
//     hoist out of the dst loop entirely.
//  2. Path links separate into endpoint bases and a pair-independent
//     per-path addend (see topology.PathAddends), so the source's
//     bases are derived once per source instead of once per pair.
//
// The filler below applies both. Path indices come from the closed-form
// IndexGen for the built-in deterministic selectors (identical formulas
// to their Select methods) and from Routing.AppendPathsScratch for
// randomized or custom selectors, so every emitted row is bit-identical
// to the generic loop — TestBlockCompiledMatchesCompiled diffs the
// result against CompileRouting pair by pair.

// segFiller holds the reusable state of one segment fill: per-level
// path-count tables, the index generator, the link expander and the
// generic-selector scratch. One filler per compileSegment call; fills
// are single-goroutine (block parallelism is across segments).
type segFiller struct {
	r    *Routing
	topo *topology.Topology
	exp  *topology.LinkExpander
	h    int
	n    int

	psub [maxDigits]int // processors per level-k subtree
	np   [maxDigits]int // paths per pair at NCA level k

	gen *IndexGen // nil: generic selector

	idxBuf  []int32
	pathBuf []int
	ps      *PathScratch

	// Delta fill (see segdelta.go): when base is non-nil, spans at
	// levels marked shared copy the base segment's rows instead of
	// regenerating them; rowsShared counts the rows served that way.
	base       *RoutingSegment
	shared     []bool
	rowsShared int64
}

func newSegFiller(r *Routing) *segFiller {
	t := r.Topology()
	f := &segFiller{
		r:    r,
		topo: t,
		exp:  t.NewLinkExpander(),
		h:    t.H(),
		n:    t.NumProcessors(),
	}
	f.psub[0] = 1
	maxNP := 0
	for k := 1; k <= f.h; k++ {
		f.psub[k] = t.ProcessorsPerSubtree(k)
		f.np[k] = r.pathCount(k)
		if f.np[k] > maxNP {
			maxNP = f.np[k]
		}
	}
	f.gen = NewIndexGen(t, r.sel, r.k)
	if f.gen == nil {
		f.ps = NewPathScratch()
	}
	f.idxBuf = make([]int32, maxNP)
	return f
}

// perSourceCounts returns the exact per-source path and link totals —
// every source of an XGFT sees the same per-level pair counts, so the
// segment arrays can be sized in closed form before the fill.
func (f *segFiller) perSourceCounts() (paths, links int64) {
	for k := 1; k <= f.h; k++ {
		pairs := int64(f.psub[k] - f.psub[k-1])
		np := int64(f.np[k])
		paths += pairs * np
		links += pairs * np * int64(2*k)
	}
	return paths, links
}

// fill writes every CSR row of sources [lo, hi) into s, whose offset
// and data arrays are already sized exactly. Rows are emitted in the
// same (src, dst) order as the generic loop.
func (f *segFiller) fill(s *RoutingSegment, lo, hi int) error {
	var nPaths, nLinks int64
	p := 0
	for src := lo; src < hi; src++ {
		f.exp.SetSource(src)
		// Destination intervals of constant NCA level: the nested
		// aligned subtree blocks of src, split at the next-lower block.
		// Descending run (dst < src), the self pair, ascending run.
		for k := f.h; k >= 1; k-- {
			a := src - src%f.psub[k]
			b := src - src%f.psub[k-1]
			if a < b {
				if err := f.span(s, src, a, b, k, &p, &nPaths, &nLinks); err != nil {
					return err
				}
			}
		}
		s.pathOff[p] = nPaths
		s.linkOff[p] = nLinks
		p++ // self pair: empty row
		for k := 1; k <= f.h; k++ {
			a := src - src%f.psub[k-1] + f.psub[k-1]
			b := src - src%f.psub[k] + f.psub[k]
			if a < b {
				if err := f.span(s, src, a, b, k, &p, &nPaths, &nLinks); err != nil {
					return err
				}
			}
		}
	}
	s.pathOff[p] = nPaths
	s.linkOff[p] = nLinks
	if nPaths != int64(len(s.pathIdx)) || nLinks != int64(len(s.links)) {
		return fmt.Errorf("core: segment fill emitted %d paths/%d links, sized %d/%d",
			nPaths, nLinks, len(s.pathIdx), len(s.links))
	}
	return nil
}

// span emits the rows of destinations [d0, d1), all at NCA level k
// against src — by copying the base segment's rows when a delta fill
// marked level k shared, and by generating them otherwise.
func (f *segFiller) span(s *RoutingSegment, src, d0, d1, k int, p *int, nPaths, nLinks *int64) error {
	if f.base != nil && f.shared[k] {
		f.copySpan(s, d0, d1, k, p, nPaths, nLinks)
		return nil
	}
	return f.fillSpan(s, src, d0, d1, k, p, nPaths, nLinks)
}

// copySpan copies the rows of destinations [d0, d1) at level k out of
// the base segment. Because delta compatibility requires equal
// per-level path counts (see DeltaSharedLevels), the base segment's
// rows sit at exactly the same pathIdx/links positions as the rows
// being written, so the copy is two straight memmoves per span.
func (f *segFiller) copySpan(s *RoutingSegment, d0, d1, k int, p *int, nPaths, nLinks *int64) {
	np := int64(f.np[k])
	stride := np * int64(2*k)
	rows := d1 - d0
	row := *p
	paths := *nPaths
	links := *nLinks
	for i := 0; i < rows; i++ {
		s.pathOff[row] = paths + int64(i)*np
		s.linkOff[row] = links + int64(i)*stride
		row++
	}
	copy(s.pathIdx[paths:paths+int64(rows)*np], f.base.pathIdx[paths:paths+int64(rows)*np])
	copy(s.links[links:links+int64(rows)*stride], f.base.links[links:links+int64(rows)*stride])
	f.rowsShared += int64(rows)
	*p = row
	*nPaths = paths + int64(rows)*np
	*nLinks = links + int64(rows)*stride
}

// fillSpan emits the rows of destinations [d0, d1), all at NCA level k
// against src.
func (f *segFiller) fillSpan(s *RoutingSegment, src, d0, d1, k int, p *int, nPaths, nLinks *int64) error {
	np := f.np[k]
	stride := 2 * k
	row := *p
	paths := *nPaths
	links := *nLinks
	for dst := d0; dst < d1; dst++ {
		s.pathOff[row] = paths
		s.linkOff[row] = links
		row++
		var idxs []int32
		if f.gen != nil {
			idxs = f.gen.Append(f.idxBuf[:0], src, dst, k, np)
		} else {
			idxs = f.idxBuf[:np]
			f.pathBuf = f.r.AppendPathsScratch(f.ps, f.pathBuf[:0], src, dst)
			if len(f.pathBuf) != np {
				return fmt.Errorf("core: selector %s produced %d paths for pair (%d,%d), predicted %d; custom selectors must emit a fixed count per NCA level to be compilable",
					f.r.Selector().Name(), len(f.pathBuf), src, dst, np)
			}
			for i, idx := range f.pathBuf {
				idxs[i] = int32(idx)
			}
		}
		copy(s.pathIdx[paths:paths+int64(np)], idxs)
		f.exp.PairLinks(dst, k, idxs, s.links[links:links+int64(np*stride)])
		paths += int64(np)
		links += int64(np * stride)
	}
	*p = row
	*nPaths = paths
	*nLinks = links
	return nil
}
