package core

import (
	"sync"

	"github.com/sgb-db/sgb/internal/convexhull"
	"github.com/sgb-db/sgb/internal/geom"
)

// passScratch is the memory of one whole-set pass that does not outlive
// it: SGB-All's arbitration state with its group blocks, member lists
// and per-group counts (all), which each FORM-NEW-GROUP stage takes over
// from the one before it (endStage), its sorted cell index (sorted) and
// grid finder (grid), and the cell graph's buffers (graph); sorted and
// graph share one radix sort (cells). A pass takes one from passPool
// and puts it back when it returns, so a one-shot statement allocates
// its answer and what outgrows the buffers of the statements before
// it, and nothing else. The entry points are sgbAllSet and an AllEvaluator's
// FORM-NEW-GROUP recursion (AllEvaluator.Result) for SGB-All, and
// runCellGraph for SGB-Any. No evaluator keeps one: the Result a pass
// returns holds nothing of it.
type passScratch struct {
	cells  cellSort
	sorted sortedCells
	graph  cellGraph
	grid   gridFinder
	all    sgbAllState
}

var passPool = sync.Pool{New: func() any {
	sc := new(passScratch)
	sc.sorted.cellSort = &sc.cells
	sc.graph.cellSort = &sc.cells
	sc.all.scratch = sc
	return sc
}}

// getPassScratch takes a pass scratch from the pool.
func getPassScratch() *passScratch { return passPool.Get().(*passScratch) }

// allState readies the scratch's SGB-All state for an empty
// arbitration over pts (sgbAllState.reset).
func (sc *passScratch) allState(pts *geom.PointSet, opt Options) *sgbAllState {
	sc.all.reset(pts, opt)
	return &sc.all
}

// release drops what the scratch points to outside itself — the points
// and their views, the options' Stats, a non-grid finder — so a pooled
// scratch keeps no statement's data alive, and puts it back.
func (sc *passScratch) release() {
	st := &sc.all
	st.points, st.opt, st.finder = nil, Options{}, nil
	clear(st.hullPts[:cap(st.hullPts)])
	st.hulls, st.hullScratch = nil, convexhull.Scratch{}
	sc.cells.ps = nil
	sc.graph.tree = nil
	passPool.Put(sc)
}
