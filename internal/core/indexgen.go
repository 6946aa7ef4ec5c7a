package core

import "xgftsim/internal/topology"

// Closed-form path indices. The built-in deterministic selectors need
// no Select call per pair: d-mod-k and s-mod-k are one mixed-radix pass
// over an endpoint, shift-1 and disjoint add a fixed per-level offset
// sequence to the d-mod-k index, and UMULTI is the canonical order.
// IndexGen caches the radix and offset tables those formulas read, so
// a pair costs one radix pass plus an add and a modulo per path. The
// block segment filler and the lazy multi-K evaluator both draw their
// indices from it; TestIndexGenMatchesSelect pins it to Select.

// fastScheme tags the built-in deterministic selectors with closed-form
// index generation; fastGeneric falls back to Selector.Select per pair.
type fastScheme int

const (
	fastGeneric fastScheme = iota
	fastDModK
	fastSModK
	fastShift1
	fastDisjoint
	fastUMulti
)

// IndexGen generates the path indices of one built-in deterministic
// selector in closed form. It is read-only after construction and safe
// for concurrent use.
type IndexGen struct {
	scheme fastScheme
	w      [maxDigits]int
	wprod  [maxDigits]int
	offs   [maxDigits][]int32 // disjoint offsets per level, min(limit, X) entries
}

// NewIndexGen returns the closed-form index generator of sel over t for
// path limits up to limK (<= 0 meaning unlimited), or nil when sel has
// no closed form — randomized and custom selectors, whose callers fall
// back to the Routing's AppendPaths family.
func NewIndexGen(t *topology.Topology, sel Selector, limK int) *IndexGen {
	scheme := fastKindOf(sel)
	if scheme == fastGeneric {
		return nil
	}
	g := &IndexGen{scheme: scheme}
	g.wprod[0] = 1
	for k := 1; k <= t.H(); k++ {
		g.w[k] = t.W(k)
		g.wprod[k] = t.WProd(k)
		if scheme == fastDisjoint {
			g.offs[k] = make([]int32, clampK(limK, g.wprod[k]))
			for c := range g.offs[k] {
				g.offs[k][c] = int32(DisjointOffset(t, k, c))
			}
		}
	}
	return g
}

// dmodk is DModKIndex over the cached radix tables.
func (g *IndexGen) dmodk(v, k int) int {
	idx := 0
	for j := 1; j <= k; j++ {
		idx = idx*g.w[j] + (v/g.wprod[j-1])%g.w[j]
	}
	return idx
}

// Append appends to buf the path indices the selector's Select emits
// at limit n (>= 1, at most the generator's limit) for the pair
// (src, dst) at NCA level k >= 1, and returns the extended slice.
func (g *IndexGen) Append(buf []int32, src, dst, k, n int) []int32 {
	x := g.wprod[k]
	n = clampK(n, x)
	switch g.scheme {
	case fastDModK:
		return append(buf, int32(g.dmodk(dst, k)))
	case fastSModK:
		return append(buf, int32(g.dmodk(src, k)))
	case fastShift1:
		i0 := g.dmodk(dst, k)
		for c := 0; c < n; c++ {
			buf = append(buf, int32((i0+c)%x))
		}
	case fastDisjoint:
		i0 := g.dmodk(dst, k)
		for _, off := range g.offs[k][:n] {
			buf = append(buf, int32((i0+int(off))%x))
		}
	case fastUMulti:
		for i := 0; i < x; i++ {
			buf = append(buf, int32(i))
		}
	}
	return buf
}
