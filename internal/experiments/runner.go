package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the parallel experiment engine. Every figure's
// parameter sweep is a list of independent cells — one simulated cluster
// per (mode, topology, clients, knobs) point — and each cell owns its
// engine, stores, and random streams, so cells can run on separate
// goroutines with no shared mutable state. Results are aggregated in
// declaration order and each cell's seed is a pure function of the scale,
// so the rendered report is byte-identical for any parallelism setting.

// totalCells counts simulation cells completed process-wide since start;
// part of the engine's metrics surface (see TotalCells).
var totalCells atomic.Int64

// TotalCells returns the cumulative number of simulation cells the
// engine has completed in this process. Safe to read concurrently with
// running experiments.
func TotalCells() int64 { return totalCells.Load() }

// workers returns the worker-pool size for a sweep of n cells:
// Scale.Parallel when positive, otherwise GOMAXPROCS, never more than n.
func (sc Scale) workers(n int) int {
	par := sc.Parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}
	if par < 1 {
		par = 1
	}
	return par
}

// runCells executes every cell of a sweep, fanning them out across
// Scale.Parallel worker goroutines (GOMAXPROCS when zero), and returns
// the results in cell order. Errors are reported deterministically: the
// lowest-index failing cell wins regardless of completion order.
func runCells(sc Scale, cells []point) ([]*runResult, error) {
	results := make([]*runResult, len(cells))
	errs := make([]error, len(cells))
	par := sc.workers(len(cells))

	var mu sync.Mutex
	done := 0
	cellDone := func() {
		totalCells.Add(1)
		if sc.OnProgress == nil {
			return
		}
		// Serialize progress callbacks so observers need no locking.
		mu.Lock()
		done++
		sc.OnProgress(done, len(cells))
		mu.Unlock()
	}

	if par == 1 {
		for i := range cells {
			results[i], errs[i] = run(sc, cells[i])
			cellDone()
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					results[i], errs[i] = run(sc, cells[i])
					cellDone()
				}
			}()
		}
		for i := range cells {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cell %d/%d (%s): %w", i+1, len(cells), cells[i].mode, err)
		}
	}
	return results, nil
}

// sweep runs a figure's cells through the parallel engine and tags the
// report with the sweep's cell count and worker-pool size (metadata only;
// Report.String never includes it, keeping output independent of the
// parallelism setting).
func sweep(sc Scale, r *Report, cells []point) ([]*runResult, error) {
	res, err := runCells(sc, cells)
	if err != nil {
		return nil, err
	}
	r.Cells = len(cells)
	r.Workers = sc.workers(len(cells))
	for _, cell := range res {
		r.Totals.add(cell)
	}
	return res, nil
}

// sweepGrid runs a rows x cols sweep (row-major) and returns an accessor
// over the results. Figures build cells and read results through the
// same (ri, ci) coordinates, so labels cannot drift out of lockstep with
// the cell order.
func sweepGrid(sc Scale, r *Report, rows, cols int, build func(ri, ci int) point) (func(ri, ci int) *runResult, error) {
	cells := make([]point, 0, rows*cols)
	for ri := 0; ri < rows; ri++ {
		for ci := 0; ci < cols; ci++ {
			cells = append(cells, build(ri, ci))
		}
	}
	res, err := sweep(sc, r, cells)
	if err != nil {
		return nil, err
	}
	return func(ri, ci int) *runResult { return res[ri*cols+ci] }, nil
}
