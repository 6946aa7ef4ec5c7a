package topology

import (
	"fmt"
	"slices"
	"sync"
)

// Closed-form path links. The 2k links of canonical path idx between
// src and dst (NCA level k) split into an endpoint half and a path
// half:
//
//	up link at level j   = upBase_j(src)   + A_k[idx][j]
//	down link at level j = downBase_j(dst) + A_k[idx][j]
//
//	upBase_j(v)   = 2·(edgeOffset[j-1] + ⌊v / Π_{i<j} m_i⌋·WProd(j))
//	downBase_j(v) = upBase_j(v) + 1
//	A_k[idx][j]   = 2·(uLow_j·w_j + u_j)
//
// where u_1..u_k are the digits of idx (u_1 most significant, as
// core.DecodePathIndex defines them) and uLow_j = Σ_{i<j} u_i·WProd(i-1)
// packs the digits below level j. This is AppendPathLinksNCA factored:
// its tier-(j-1) edge edgeOffset[j-1] + (sHigh_j·WProd(j-1) + uLow_j)·w_j
// + u_j is the base's edge plus half the addend. The addend table A_k
// depends on neither endpoint, so it is built once per level on first
// use and shared read-only by every caller (PathAddends). Expanding a
// pair then costs the k-division base pass plus 2k adds per path.
// TestClosedFormMatchesAppend pins the identity.

// addendTable is one level's lazily built A_k.
type addendTable struct {
	once sync.Once
	a    []int32
}

// PathAddends returns the level-k addend table A_k: WProd(k) rows of k
// entries, row idx holding A_k[idx][j] for j = 1..k in level order. The
// table is built on first use, shared by every caller and must not be
// modified. Level 0 (the self pair) has one empty row.
func (t *Topology) PathAddends(k int) []int32 {
	t.checkLevel(k)
	at := &t.addends[k]
	at.once.Do(func() { at.a = t.buildAddends(k) })
	return at.a
}

// buildAddends materializes A_k row by row with a digit odometer: u_k
// is least significant, which makes row order canonical index order.
func (t *Topology) buildAddends(k int) []int32 {
	x := t.wprod[k]
	a := make([]int32, x*k)
	var dig [maxHeight + 1]int
	for idx := 0; idx < x; idx++ {
		row := a[idx*k : idx*k+k]
		uLow := 0
		for j := 1; j <= k; j++ {
			row[j-1] = int32(2 * (uLow*t.w[j] + dig[j]))
			uLow += dig[j] * t.wprod[j-1]
		}
		for j := k; j >= 1; j-- {
			dig[j]++
			if dig[j] < t.w[j] {
				break
			}
			dig[j] = 0
		}
	}
	return a
}

// linkBases writes the k per-level link bases of endpoint v into b:
// upBase_j(v) for dir 0, downBase_j(v) for dir 1.
func (t *Topology) linkBases(v, k, dir int, b *[maxHeight]int) {
	for j := 1; j <= k; j++ {
		b[j-1] = 2*(t.edgeOffset[j-1]+v*t.wprod[j]) + dir
		v /= t.m[j]
	}
}

// expandPathSet is the closed form's inner loop, the one place path
// links are assembled from bases and addends: it writes the 2k links
// of every index in idxs into out (path-major, up links in level order
// then down links from level k back to 1). up and down hold the
// endpoints' bases; add is A_k.
func expandPathSet[L ~int | ~int32, I ~int | ~int32](out []L, up, down *[maxHeight]int, add []int32, x, k int, idxs []I) {
	for _, idx := range idxs {
		if uint(idx) >= uint(x) {
			panic(fmt.Sprintf("topology: path index %d out of range [0,%d)", idx, x))
		}
		row := add[int(idx)*k : int(idx)*k+k]
		o := out[:2*k]
		for j, a := range row {
			o[j] = L(up[j] + int(a))
			o[2*k-1-j] = L(down[j] + int(a))
		}
		out = out[2*k:]
	}
}

// AppendPathSetLinks appends the 2k directed links of every canonical
// path index in idxs for the pair (src, dst) to buf and returns the
// extended slice: path-major in idxs order, each path in traversal
// order (k up links, then k down links), exactly as AppendPathLinksNCA
// emits them. k must be NCALevel(src, dst), established by the caller.
// An index outside [0, WProd(k)) panics. It allocates nothing when buf
// has capacity.
func AppendPathSetLinks[L ~int | ~int32, I ~int | ~int32](t *Topology, buf []L, src, dst, k int, idxs []I) []L {
	var up, down [maxHeight]int
	t.linkBases(src, k, 0, &up)
	t.linkBases(dst, k, 1, &down)
	n := len(buf)
	buf = slices.Grow(buf, 2*k*len(idxs))[:n+2*k*len(idxs)]
	expandPathSet(buf[n:], &up, &down, t.PathAddends(k), t.wprod[k], k, idxs)
	return buf
}

// LinkExpander expands many destinations against one source at a time
// (the block segment compiler walks every dst for each source of a
// block). It holds the source's link bases for every level, so a pair
// costs only the destination's base pass before the shared closed-form
// expansion. Results are bit-identical to AppendPathSetLinks; not safe
// for concurrent use, each compiling goroutine holds its own.
type LinkExpander struct {
	t   *Topology
	src int
	up  [maxHeight]int
}

// NewLinkExpander creates an expander over t with no source selected.
func (t *Topology) NewLinkExpander() *LinkExpander {
	return &LinkExpander{t: t, src: -1}
}

// SetSource selects the source whose paths subsequent PairLinks calls
// expand. Selecting the current source again is a no-op.
func (e *LinkExpander) SetSource(src int) {
	if src == e.src {
		return
	}
	if src < 0 || src >= e.t.mprod[0] {
		panic(fmt.Sprintf("topology: source %d out of range [0,%d)", src, e.t.mprod[0]))
	}
	e.src = src
	e.t.linkBases(src, e.t.h, 0, &e.up)
}

// PairLinks writes the 2k links of every path index in idxs for the
// pair (current source, dst) — NCA level k, caller-established — into
// out, path-major in idxs order, exactly as AppendPathSetLinks would
// emit them. out must hold len(idxs)·2k values.
func (e *LinkExpander) PairLinks(dst, k int, idxs []int32, out []int32) {
	if e.src < 0 {
		panic("topology: LinkExpander has no source; call SetSource first")
	}
	t := e.t
	var down [maxHeight]int
	t.linkBases(dst, k, 1, &down)
	expandPathSet(out[:len(idxs)*2*k], &e.up, &down, t.PathAddends(k), t.wprod[k], k, idxs)
}
