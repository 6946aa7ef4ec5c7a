package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"time"

	"xgftsim/internal/experiments"
)

// tableDigest hashes a table's labels and the exact bits of every
// cell, so any change to a reproduced figure changes the digest. The
// first 16 hex digits are returned.
func tableDigest(tbls ...*experiments.Table) string {
	h := sha256.New()
	for _, t := range tbls {
		fmt.Fprintf(h, "%s|%q|%q\n", t.XLabel, t.XValues, t.Columns)
		for _, row := range t.Cells {
			for _, c := range row {
				fmt.Fprintf(h, "%x,%x,%d;", math.Float64bits(c.Mean), math.Float64bits(c.HalfWidth), c.Samples)
			}
			fmt.Fprintln(h)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cellsEqual reports whether grid matches tbl's cells exactly, and the
// first differing coordinate when not.
func cellsEqual(tbl *experiments.Table, grid [][]experiments.Cell) (bool, string) {
	if len(grid) != len(tbl.Cells) {
		return false, fmt.Sprintf("%d rows, table has %d", len(grid), len(tbl.Cells))
	}
	for i, row := range tbl.Cells {
		if len(grid[i]) != len(row) {
			return false, fmt.Sprintf("row %d: %d cells, table has %d", i, len(grid[i]), len(row))
		}
		for j, c := range row {
			if grid[i][j] != c {
				return false, fmt.Sprintf("row %s col %s: replay %+v, table %+v", tbl.XValues[i], tbl.Columns[j], grid[i][j], c)
			}
		}
	}
	return true, "every cell bit-identical"
}

// checkCellsPositive counts every cell of tbl as one attempted output
// and fails those that are not finite and positive.
func checkCellsPositive(rep *report, tbl *experiments.Table) {
	bad := 0
	for _, row := range tbl.Cells {
		for _, c := range row {
			rep.attempted++
			if !(c.Mean > 0) || math.IsInf(c.Mean, 0) || math.IsNaN(c.HalfWidth) {
				rep.failed++
				bad++
			}
		}
	}
	if bad > 0 {
		rep.checks = append(rep.checks, check{"cells finite and positive", false, fmt.Sprintf("%d bad cells", bad), 1})
	}
}

// cellTimes records the wall time of each cell a replay runs, for the
// experiments.* per-layer metrics.
type cellTimes struct {
	mu    sync.Mutex
	times []float64
}

func (c *cellTimes) add(d time.Duration) {
	c.mu.Lock()
	c.times = append(c.times, d.Seconds())
	c.mu.Unlock()
}

// runPool runs f(0..n-1) on at most `workers` goroutines, timing each
// call, and returns once all have finished; it mirrors the experiments
// package's cell scheduler for the traced replays.
func runPool(n int, ct *cellTimes, f func(i int)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			f(i)
			ct.add(time.Since(t0))
		}(i)
	}
	wg.Wait()
}

// cellLayers fills the experiments.* per-layer metrics from a replay's
// cell times and wall time.
func cellLayers(layers map[string]metric, ct *cellTimes, wall float64) {
	sum, maxCell := 0.0, 0.0
	for _, x := range ct.times {
		sum += x
		maxCell = math.Max(maxCell, x)
	}
	layers["experiments.cell_p50_s"] = metric{median(ct.times), "s"}
	layers["experiments.cell_max_s"] = metric{maxCell, "s"}
	if wall > 0 {
		layers["experiments.busy_ratio"] = metric{sum / (wall * workers), "ratio"}
	}
}

// meanSpan is the mean duration of the named spans divided by unitNs
// (1 for ns, 1e3 for µs, ...); 0 when none were recorded.
func meanSpan(sum map[string]*spanStats, name string, unitNs float64) float64 {
	st := sum[name]
	if st == nil || st.count == 0 {
		return 0
	}
	return float64(st.total) / float64(st.count) / unitNs
}
