package topology

import (
	"fmt"
	"sync"
	"testing"
)

// decodeIndex expands canonical path index idx at NCA level k into its
// up-port digits, u_1 most significant.
func decodeIndex(t *Topology, k, idx int, up []int) []int {
	up = up[:k]
	for j := k; j >= 1; j-- {
		up[j-1] = idx % t.W(j)
		idx /= t.W(j)
	}
	return up
}

// levelPairs returns up to limit pairs (src, dst) of every NCA level
// 1..h, spread over the processor range: all pairs when the topology is
// small enough, a deterministic sample otherwise.
func levelPairs(t *Topology, limit int) [][2]int {
	n := t.NumProcessors()
	var pairs [][2]int
	perLevel := make([]int, t.H()+1)
	step := 1
	if n*n > limit*t.H()*8 {
		step = n/7 + 1
	}
	for src := 0; src < n; src += step {
		for dst := n - 1; dst >= 0; dst-- {
			if dst == src {
				continue
			}
			k := t.NCALevel(src, dst)
			if perLevel[k] >= limit {
				continue
			}
			perLevel[k]++
			pairs = append(pairs, [2]int{src, dst})
		}
	}
	return pairs
}

// TestClosedFormMatchesAppend pins the closed-form identity: for every
// canonical path index of sampled pairs at every NCA level, the
// addend-table expansion (AppendPathSetLinks, both index and link
// widths) emits exactly the links of the per-hop AppendPathLinksNCA.
// Heights 1 to 4 are covered, with w_1 > 1 and the 34,560-endpoint
// mega fabric among them.
func TestClosedFormMatchesAppend(t *testing.T) {
	for _, topo := range []*Topology{
		MustNew(1, []int{6}, []int{5}),
		MustNew(2, []int{4, 3}, []int{2, 3}),
		MustNew(3, []int{2, 3, 4}, []int{3, 2, 2}),
		MustNew(3, []int{12, 12, 24}, []int{1, 12, 12}),
		MustNew(4, []int{2, 3, 2, 3}, []int{2, 1, 3, 2}),
		MustNew(3, []int{24, 24, 60}, []int{1, 24, 24}),
	} {
		t.Run(topo.String(), func(t *testing.T) {
			var up [maxHeight]int
			var want []LinkID
			var got []LinkID
			var got32 []int32
			idxs := make([]int, 0, topo.MaxPaths())
			covered := make([]bool, topo.H()+1)
			for _, pr := range levelPairs(topo, 40) {
				src, dst := pr[0], pr[1]
				k := topo.NCALevel(src, dst)
				covered[k] = true
				idxs = idxs[:0]
				want = want[:0]
				for idx := 0; idx < topo.WProd(k); idx++ {
					idxs = append(idxs, idx)
					want = topo.AppendPathLinksNCA(want, src, dst, k, decodeIndex(topo, k, idx, up[:]))
				}
				got = AppendPathSetLinks(topo, got[:0], src, dst, k, idxs)
				got32 = AppendPathSetLinks(topo, got32[:0], src, dst, k, idxs)
				if len(got) != len(want) || len(got32) != len(want) {
					t.Fatalf("pair (%d,%d): %d/%d links, want %d", src, dst, len(got), len(got32), len(want))
				}
				for i := range want {
					if got[i] != want[i] || LinkID(got32[i]) != want[i] {
						t.Fatalf("pair (%d,%d) k=%d path %d link %d: closed form %d/%d, per-hop %d",
							src, dst, k, i/(2*k), i%(2*k), got[i], got32[i], want[i])
					}
				}
			}
			for k := 1; k <= topo.H(); k++ {
				if !covered[k] {
					t.Errorf("no pair sampled at NCA level %d", k)
				}
			}
		})
	}
}

// TestPathAddendsTable pins A_k entry by entry against its definition
// 2·(uLow_j·w_j + u_j), and that the table is built once and shared.
func TestPathAddendsTable(t *testing.T) {
	topo := MustNew(3, []int{2, 3, 4}, []int{3, 2, 2})
	var up [maxHeight]int
	for k := 0; k <= topo.H(); k++ {
		a := topo.PathAddends(k)
		if len(a) != topo.WProd(k)*k {
			t.Fatalf("level %d: %d entries, want %d", k, len(a), topo.WProd(k)*k)
		}
		for idx := 0; idx < topo.WProd(k); idx++ {
			u := decodeIndex(topo, k, idx, up[:])
			uLow := 0
			for j := 1; j <= k; j++ {
				if want := int32(2 * (uLow*topo.W(j) + u[j-1])); a[idx*k+j-1] != want {
					t.Fatalf("A_%d[%d][%d] = %d, want %d", k, idx, j, a[idx*k+j-1], want)
				}
				uLow += u[j-1] * topo.WProd(j-1)
			}
		}
		if k > 0 && &topo.PathAddends(k)[0] != &a[0] {
			t.Fatalf("level %d: PathAddends rebuilt its table", k)
		}
	}
}

// TestPathAddendsConcurrentFirstUse pins that goroutines racing to the
// first use of a level's table all get the same one (run under -race).
func TestPathAddendsConcurrentFirstUse(t *testing.T) {
	topo := MustNew(3, []int{4, 4, 8}, []int{1, 4, 4})
	const workers = 8
	got := make([][]int32, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = topo.PathAddends(3)
			AppendPathSetLinks[int32](topo, nil, 0, 100, 3, []int{5})
		}(i)
	}
	wg.Wait()
	for i := range got {
		if &got[i][0] != &got[0][0] {
			t.Fatalf("goroutine %d got its own level-3 table", i)
		}
	}
}

// TestAppendPathSetLinksIndexRange pins the out-of-range path index
// panic, for indices past X and negative ones of either index width.
func TestAppendPathSetLinksIndexRange(t *testing.T) {
	topo := MustNew(2, []int{4, 3}, []int{2, 3})
	src, dst := 0, 11
	k := topo.NCALevel(src, dst)
	for _, bad := range []int{-1, topo.WProd(k)} {
		for _, wide := range []bool{true, false} {
			t.Run(fmt.Sprintf("%d/wide=%v", bad, wide), func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Fatalf("index %d did not panic", bad)
					}
				}()
				if wide {
					AppendPathSetLinks[LinkID](topo, nil, src, dst, k, []int{0, bad})
				} else {
					AppendPathSetLinks[int32](topo, nil, src, dst, k, []int32{0, int32(bad)})
				}
			})
		}
	}
}

// TestLinkExpanderMatchesAppend pins the expander to the shared closed
// form and to the per-hop derivation: for every pair and every
// canonical path index, PairLinks must emit the exact link sequence of
// AppendPathSetLinks and of AppendPathLinksNCA.
func TestLinkExpanderMatchesAppend(t *testing.T) {
	for _, topo := range []*Topology{
		MustNew(2, []int{4, 3}, []int{2, 3}),
		MustNew(3, []int{4, 4, 8}, []int{1, 4, 4}),
		MustNew(3, []int{2, 3, 4}, []int{3, 2, 2}),
	} {
		t.Run(topo.String(), func(t *testing.T) {
			n := topo.NumProcessors()
			exp := topo.NewLinkExpander()
			var up [maxHeight]int
			var want []LinkID
			var closed []int32
			idxs := make([]int32, 0, topo.MaxPaths())
			out := make([]int32, 0)
			for src := 0; src < n; src++ {
				exp.SetSource(src)
				for dst := 0; dst < n; dst++ {
					if dst == src {
						continue
					}
					k := topo.NCALevel(src, dst)
					x := topo.WProd(k)
					// All indices at once, in canonical order.
					idxs = idxs[:0]
					want = want[:0]
					for idx := 0; idx < x; idx++ {
						idxs = append(idxs, int32(idx))
						want = topo.AppendPathLinksNCA(want, src, dst, k, decodeIndex(topo, k, idx, up[:]))
					}
					closed = AppendPathSetLinks(topo, closed[:0], src, dst, k, idxs)
					if cap(out) < len(want) {
						out = make([]int32, len(want))
					}
					out = out[:len(want)]
					exp.PairLinks(dst, k, idxs, out)
					for i := range want {
						if int32(want[i]) != out[i] || closed[i] != out[i] {
							t.Fatalf("pair (%d,%d) k=%d link %d: expander %d, closed form %d, append %d",
								src, dst, k, i, out[i], closed[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestLinkExpanderSubsetOrder pins that PairLinks honours the order of
// an arbitrary (non-contiguous, repeated) index list, as selectors
// produce them.
func TestLinkExpanderSubsetOrder(t *testing.T) {
	topo := MustNew(3, []int{4, 4, 8}, []int{1, 4, 4})
	exp := topo.NewLinkExpander()
	src, dst := 5, 100
	k := topo.NCALevel(src, dst)
	if k < 2 {
		t.Fatalf("want deep pair, got NCA level %d", k)
	}
	idxs := []int32{7, 0, 7, 3}
	out := make([]int32, len(idxs)*2*k)
	exp.SetSource(src)
	exp.PairLinks(dst, k, idxs, out)
	var up [maxHeight]int
	var want []LinkID
	for _, idx := range idxs {
		want = topo.AppendPathLinksNCA(want, src, dst, k, decodeIndex(topo, k, int(idx), up[:]))
	}
	for i := range want {
		if int32(want[i]) != out[i] {
			t.Fatalf("link %d: expander %d != append %d", i, out[i], want[i])
		}
	}
}
