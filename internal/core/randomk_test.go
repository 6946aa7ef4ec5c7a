package core

import (
	"fmt"
	"math/rand"
	"testing"

	"xgftsim/internal/stats"
	"xgftsim/internal/topology"
)

// randomKScanReference is RandomK.Select before the membership bitmap:
// the sparse draw and the hybrid tail test membership by scanning the
// accepted prefix, O(X·x/4) per call. Kept as the reference the bitmap
// version must reproduce draw for draw.
func randomKScanReference(x, n int, rng *rand.Rand) []int {
	var buf []int
	if x <= randomKDenseX {
		for i := 0; i < x; i++ {
			buf = append(buf, i)
		}
		for i := 0; i < n && i < x-1; i++ {
			j := i + rng.Intn(x-i)
			buf[i], buf[j] = buf[j], buf[i]
		}
		return buf[:n]
	}
	lim := n
	if sparseMax := x / 4; lim > sparseMax {
		lim = sparseMax
	}
draw:
	for len(buf) < lim {
		v := rng.Intn(x)
		for _, u := range buf {
			if u == v {
				continue draw
			}
		}
		buf = append(buf, v)
	}
	if n == lim {
		return buf
	}
	for v := 0; v < x; v++ {
		dup := false
		for _, u := range buf[:lim] {
			if u == v {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, v)
		}
	}
	pool := buf[lim:]
	for i := 0; i < n-lim && i < len(pool)-1; i++ {
		j := i + rng.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return buf[:n]
}

// TestRandomKSelectMatchesScanReference pins RandomK.Select to the
// scan reference for pairs with X on both sides of the dense, bitmap
// and scan regime bounds, at every limit n <= X: the same indices in
// the same order, and the same number of draws taken from the stream.
func TestRandomKSelectMatchesScanReference(t *testing.T) {
	for _, x := range []int{17, 64, 100, 144, 1024, 1025} {
		t.Run(fmt.Sprint(x), func(t *testing.T) {
			tp := topology.MustNew(1, []int{2}, []int{x})
			buf := make([]int, 0, x)
			for n := 1; n <= x; n++ {
				seed := int64(x*7919 + n)
				a, b := stats.CheapStream(seed, 1), stats.CheapStream(seed, 1)
				got := RandomK{}.Select(tp, 0, 1, n, a, buf[:0])
				want := randomKScanReference(x, n, b)
				if len(got) != len(want) {
					t.Fatalf("n=%d: %d indices, reference %d", n, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d: index %d is %d, reference %d", n, i, got[i], want[i])
					}
				}
				if a.Int63() != b.Int63() {
					t.Fatalf("n=%d: Select and the reference consumed different draws", n)
				}
			}
		})
	}
}

// TestRandomKSelectAllocs pins the bitmap regime to zero allocations.
func TestRandomKSelectAllocs(t *testing.T) {
	tp := topology.MustNew(1, []int{2}, []int{144})
	rng := stats.CheapStream(3, 4)
	buf := make([]int, 0, 144)
	if got := testing.AllocsPerRun(50, func() {
		buf = RandomK{}.Select(tp, 0, 1, 121, rng, buf[:0])
	}); got != 0 {
		t.Fatalf("RandomK.Select allocates %.1f/op", got)
	}
}
