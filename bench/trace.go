package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/sgb-db/sgb"
	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/exec"
	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/incr"
	"github.com/sgb-db/sgb/internal/plan"
	"github.com/sgb-db/sgb/internal/sqlparser"
	"github.com/sgb-db/sgb/internal/types"
	"github.com/sgb-db/sgb/internal/wire"
)

// span is one timed call into a layer. Spans of one statement share a
// trace id; parent is the span that caused this one (0 for a
// statement's root). Only code in this directory records spans.
type span struct {
	Trace  int    `json:"trace_id"`
	ID     int    `json:"span_id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span and returns its id (ids start at 1).
func (t *tracer) begin(trace, parent int, name string) int {
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.t0).Nanoseconds() }

// selfTimes returns, per span id, the span's duration minus the part
// of its interval that its child spans cover. Children may nest,
// overlap one another, or run in parallel; their union is what counts,
// clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ a, b int64 }
	kids := map[int][]iv{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			a, b := max(s.Start, p.Start), min(s.End, p.End)
			if b > a {
				kids[s.Parent] = append(kids[s.Parent], iv{a, b})
			}
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, end int64 = 0, s.Start
		for _, v := range ivs {
			if v.b <= end {
				continue
			}
			covered += v.b - max(v.a, end)
			end = v.b
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// shadow is the benchmark's own copy of one cached grouping: the
// traced SELECT path plans with the benchmark's hooks in place of the
// engine's, so the hooks need evaluators of their own, fed the same
// suffixes and deletions the engine's cache entry receives.
type shadow struct {
	inc      *incr.Incremental
	lat      *core.LatticeEvaluator
	consumed int
	stats    core.Stats // inc charges its work here
}

// tracedDB executes statements layer by layer from outside the
// engine, recording a span around each call.
type tracedDB struct {
	db          *sgb.DB
	sess        *sgb.Session // runs the writes
	incremental bool
	tr          *tracer
	shadows     map[string]*shadow
	tableLen    func() int // rows now in checkins, per the model
	// Per-statement scratch, reset by run.
	trace, parent int
	work          core.Stats // operator counters of the current statement
	scanned       int
	// Totals over the traced section.
	simStmts, selects    int
	total                core.Stats
	rowsScanned, rowsOut int
	wireBytes, sqlBytes  int
}

// reset starts a new trace and zeroes the totals; the shadows stay.
func (d *tracedDB) reset() {
	*d = tracedDB{db: d.db, sess: d.sess, incremental: d.incremental, shadows: d.shadows, tableLen: d.tableLen,
		tr: &tracer{t0: time.Now()}}
}

func addWork(dst, after, before *core.Stats) {
	dst.DistanceComputations += after.DistanceComputations - before.DistanceComputations
	dst.RectTests += after.RectTests - before.RectTests
	dst.HullTests += after.HullTests - before.HullTests
	dst.IndexProbes += after.IndexProbes - before.IndexProbes
	dst.GroupsCreated += after.GroupsCreated - before.GroupsCreated
}

// groupHook is the benchmark's plan.Builder.SGBIncr.
func (d *tracedDB) groupHook(table, exprKey string, anySem bool, opt core.Options) exec.GroupFunc {
	return func(points *geom.PointSet, _ int64) (*core.Result, error) {
		d.scanned = points.Len()
		if !d.incremental {
			id := d.tr.begin(d.trace, d.parent, "core.group")
			defer d.tr.end(id)
			opt.Stats = &d.work
			if anySem {
				return core.SGBAnySet(points, opt)
			}
			return core.SGBAllSet(points, opt)
		}
		key := fmt.Sprint(table, exprKey, anySem, opt.Metric, opt.Eps, opt.Overlap)
		sh := d.shadows[key]
		if sh == nil || sh.inc == nil || sh.consumed > points.Len() {
			sh = &shadow{}
			d.shadows[key] = sh
			sem := incr.All
			if anySem {
				sem = incr.Any
			}
			opt.Stats, opt.Parallelism = &sh.stats, 0
			inc, err := incr.New(sem, opt)
			if err != nil {
				return nil, err
			}
			sh.inc = inc
		}
		before := sh.stats
		if points.Len() > sh.consumed {
			id := d.tr.begin(d.trace, d.parent, "incr.append")
			err := sh.inc.AppendSet(points.Slice(sh.consumed, points.Len()))
			d.tr.end(id)
			if err != nil {
				sh.inc = nil
				return nil, err
			}
			sh.consumed = points.Len()
		}
		id := d.tr.begin(d.trace, d.parent, "incr.result")
		res, err := sh.inc.Result()
		d.tr.end(id)
		addWork(&d.work, &sh.stats, &before)
		return res, err
	}
}

// sweepHook is the benchmark's plan.Builder.SGBSweep.
func (d *tracedDB) sweepHook(table, exprKey string, epsList []float64, opt core.Options) exec.SweepFunc {
	return func(points *geom.PointSet, _ int64) ([]*core.Result, error) {
		d.scanned = points.Len()
		epsMax := epsList[len(epsList)-1]
		opt.Stats, opt.Parallelism, opt.Eps = nil, 0, epsMax
		key := fmt.Sprint("lattice", table, exprKey, opt.Metric)
		sh := d.shadows[key]
		if !d.incremental || sh == nil || sh.lat == nil || sh.consumed > points.Len() || sh.lat.EpsMax() < epsMax {
			lat, err := core.NewLatticeEvaluator(points.Dims(), opt)
			if err != nil {
				return nil, err
			}
			sh = &shadow{lat: lat}
			if d.incremental {
				d.shadows[key] = sh
			}
		}
		if points.Len() > sh.consumed {
			id := d.tr.begin(d.trace, d.parent, "lattice.append")
			err := sh.lat.AppendSet(points.Slice(sh.consumed, points.Len()), &d.work)
			d.tr.end(id)
			if err != nil {
				sh.lat = nil
				return nil, err
			}
			sh.consumed = points.Len()
		}
		id := d.tr.begin(d.trace, d.parent, "lattice.sweep")
		defer d.tr.end(id)
		return sh.lat.Sweep(epsList)
	}
}

// noteDelete mirrors the engine's cache maintenance after a DELETE on
// checkins: maintained groupings remove the rows decrementally, a
// dendrogram cannot and is dropped.
func (d *tracedDB) noteDelete(idx []int) {
	for key, sh := range d.shadows {
		if sh.inc == nil {
			delete(d.shadows, key)
			continue
		}
		fed := idx[:0:0]
		for _, i := range idx {
			if i < sh.consumed {
				fed = append(fed, i)
			}
		}
		id := d.tr.begin(d.trace, d.parent, "incr.remove")
		err := sh.inc.Remove(fed)
		d.tr.end(id)
		if err != nil {
			delete(d.shadows, key)
			continue
		}
		sh.consumed -= len(fed)
	}
}

// run executes one statement through the layers: sqlparser.Parse, then
// for a SELECT plan.Builder.BuildSelect, plan.Execute (whose grouping
// calls come back through the hooks above) and the wire row codec on
// the real result; a write goes through Session.Run, since the
// mutation path has no seam to enter from outside.
func (d *tracedDB) run(trace int, s *stmt) (rows *sgb.Rows, n int, err error) {
	tr := d.tr
	root := tr.begin(trace, 0, "stmt")
	defer tr.end(root)
	d.trace, d.work, d.scanned = trace, core.Stats{}, 0
	d.sqlBytes += len(s.sql)

	id := tr.begin(trace, root, "sqlparser.parse")
	ast, err := sqlparser.Parse(s.sql)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	sel, ok := ast.(*sqlparser.SelectStmt)
	if !ok {
		id = tr.begin(trace, root, "session.run")
		d.parent = id
		_, n, err = d.sess.Run(s.sql)
		if err == nil && s.delIdx != nil {
			d.noteDelete(s.delIdx)
		}
		tr.end(id)
		return nil, n, err
	}

	b := plan.NewBuilder(d.db.Catalog())
	b.SGBStats = &d.work
	b.SGBIncr, b.SGBSweep = d.groupHook, d.sweepHook
	id = tr.begin(trace, root, "plan.build")
	cq, err := b.BuildSelect(sel)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	id = tr.begin(trace, root, "exec.execute")
	d.parent = id
	var data []types.Row
	data, err = plan.Execute(cq)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	id = tr.begin(trace, root, "wire.encode")
	payload := wire.EncodeRows(cq.Columns, data)
	tr.end(id)
	id = tr.begin(trace, root, "wire.decode")
	_, err = wire.DecodeResponse(payload)
	tr.end(id)

	d.selects++
	d.wireBytes += len(payload)
	d.rowsOut += len(data)
	if sel.GroupBy != nil && sel.GroupBy.Similarity != nil {
		d.simStmts++
		d.total.Merge(&d.work)
	} else {
		// A plain scan reads the whole table; the model knows its size.
		d.scanned = d.tableLen()
	}
	d.rowsScanned += d.scanned
	return &sgb.Rows{Columns: cq.Columns, Data: data}, len(data), err
}

// writeTrace writes the spans to <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
