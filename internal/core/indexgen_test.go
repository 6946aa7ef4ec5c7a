package core

import (
	"testing"

	"xgftsim/internal/topology"
)

// TestIndexGenMatchesSelect pins the closed-form index generator to the
// selectors' Select: for every pair of several topologies (w_1 = 1 and
// w_1 > 1) and every limit up to X, Append must emit Select's exact
// index list. Selectors without a closed form get no generator.
func TestIndexGenMatchesSelect(t *testing.T) {
	topos := []*topology.Topology{
		topology.MustNew(3, []int{4, 4, 8}, []int{1, 4, 4}),
		topology.MustNew(3, []int{2, 3, 4}, []int{3, 2, 2}),
		topology.MustNew(2, []int{5, 4}, []int{2, 5}),
	}
	for _, sel := range allSelectors() {
		for _, tp := range topos {
			maxX := tp.MaxPaths()
			g := NewIndexGen(tp, sel, maxX)
			if g == nil {
				if fastKindOf(sel) != fastGeneric {
					t.Fatalf("%s: no generator for a closed-form selector", sel.Name())
				}
				continue
			}
			n := tp.NumProcessors()
			var want []int
			var got []int32
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					k := tp.NCALevel(src, dst)
					for lim := 1; lim <= tp.WProd(k); lim++ {
						want = sel.Select(tp, src, dst, lim, nil, want[:0])
						got = g.Append(got[:0], src, dst, k, lim)
						if len(got) != len(want) {
							t.Fatalf("%s on %s pair (%d,%d) K=%d: %d indices, Select %d", sel.Name(), tp, src, dst, lim, len(got), len(want))
						}
						for i := range want {
							if int(got[i]) != want[i] {
								t.Fatalf("%s on %s pair (%d,%d) K=%d: index %d is %d, Select %d", sel.Name(), tp, src, dst, lim, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}
