package main

import (
	"path/filepath"
	"runtime"
	"time"

	"github.com/sgb-db/sgb"
)

// hostKernelRuns is how often the traced pass runs the reference
// kernel at each of its two measuring points.
const hostKernelRuns = 100

// similarity reports whether a statement class is a similarity SELECT.
func similarity(class int) bool {
	return class == cAnyL2 || class == cAllLinfJoinAny || class == cAllL23dEliminate || class == cSweep || class == cCube
}

// runTraced is a --trace 1 run. It is single-client and executes a
// fixed statement count (scaled from --seconds), so its counts repeat
// exactly for one seed. Three parts: an untraced reference section
// through the public path, a traced replay of a quarter as many
// statements through the layers from outside, and probes that time
// each layer's exported functions on the final table.
func runTraced(sp *spec, seed int64, dur time.Duration, scratch, outDir string) (*result, error) {
	w, err := prepare(sp, seed, 1)
	if err != nil {
		return nil, err
	}
	e, err := setUp(w, filepath.Join(scratch, "db"))
	if err != nil {
		return nil, err
	}
	defer e.close()
	next := sp.streams(w)[0]
	var ck check
	warmUp(e, w, []stream{next}, &ck)
	// The traced pass reports wall times as they are; how fast the host
	// was while it ran is a metric of its own. The kernel runs here and
	// after the traced section, not between statements, so the counts of
	// the reference section stay the workload's own.
	var cal calibrator
	cal.run(hostKernelRuns)

	rounds := max(1, int(float64(sp.traceRounds)*dur.Seconds()/12))
	refStmts := rounds * sp.round

	// Reference section: public path, untraced, observed from outside
	// through DB.CacheStats and the snapshot directory.
	var simReads, reused, checkpoints int
	var buildDist int64
	lastSnap := newestSnapshot(e.dir)
	observe := func(s *stmt) func(*sgb.Rows) {
		switch {
		case similarity(s.class):
			before := e.db.CacheStats().DistanceComputations
			return func(*sgb.Rows) {
				delta := e.db.CacheStats().DistanceComputations - before
				simReads++
				if delta == 0 {
					reused++
				} else if delta > 0 {
					buildDist += delta
				}
			}
		case s.write:
			return func(*sgb.Rows) {
				if seq := newestSnapshot(e.dir); seq != lastSnap {
					lastSnap = seq
					checkpoints++
				}
			}
		}
		return nil
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ref, refWall, _ := drive(e, []stream{next}, func(_, k int) bool { return k >= refStmts }, observe, false)
	runtime.ReadMemStats(&ms1)
	tally(ref, &ck)

	// Traced section.
	td := &tracedDB{db: e.db, sess: e.db.NewSession(), incremental: sp.incremental, shadows: map[string]*shadow{},
		tableLen: func() int { return len(w.main[0].rows) }}
	td.reset()
	for _, v := range sp.warm { // build the shadows outside the trace
		if _, _, err := td.run(0, v.stmt()); err != nil {
			return nil, err
		}
	}
	td.reset()
	tracedStmts := max(1, rounds/4) * sp.round // whole rounds, so both sections see one statement mix
	traced := make([]sample, 0, tracedStmts)
	var replayed []*stmt
	t0 := time.Now()
	for k := 0; k < tracedStmts; k++ {
		s := next()
		st := time.Now()
		rows, n, err := td.run(k+1, s)
		ns := time.Since(st).Nanoseconds()
		ok := s.check(rows, n, err)
		traced = append(traced, sample{class: s.class, write: s.write, ok: ok, ns: ns, end: time.Since(t0).Nanoseconds()})
		replayed = append(replayed, s)
	}
	tracedWall := time.Since(t0)
	tally(traced, &ck)
	cal.run(hostKernelRuns)

	m := map[string]metric{}
	spanMetrics(m, td, ref, tracedStmts)
	if !sp.incremental {
		reused = 0 // no cache is consulted, so nothing was reused
	}
	m["cache.reuse_share"] = metric{ratio(float64(reused), float64(simReads)), "ratio", simReads}
	m["cache.build_distance_computations"] = metric{float64(buildDist), "count", simReads}
	m["snapshot.checkpoints"] = metric{float64(checkpoints), "count", 1}
	m["runtime.alloc_kb_per_stmt"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(len(ref)), "KB", len(ref)}
	m["runtime.gc_cycles"] = metric{float64(ms1.NumGC - ms0.NumGC), "count", 1}
	m["runtime.gc_pause_ms"] = metric{float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6, "ms", int(ms1.NumGC - ms0.NumGC)}
	m["host.calib_us"] = metric{kernelMs(cal.ms) * 1e3, "us", len(cal.ms)}
	m["trace.overhead_share"] = metric{1 - steadyRate(traced, 1, sp.round, tracedWall)/steadyRate(ref, 1, sp.round, refWall), "ratio", tracedStmts}
	classMetrics(m, ref)

	if err := probeLayers(e, w, scratch, firstReads(replayed), m); err != nil {
		return nil, err
	}
	verifyDB(e.db, w, &ck, "final state")
	rec, err := crashAndRecover(e, w, &ck, true)
	if err != nil {
		return nil, err
	}
	m["snapshot.recovery_ms"] = metric{rec.seconds * 1e3, "ms", rec.copies}
	m["snapshot.evaluators_restored"] = metric{float64(rec.info.EvaluatorsRestored), "count", 1}

	if err := writeTrace(outDir, sp.name, td.tr.spans); err != nil {
		return nil, err
	}
	return &result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: m, streamHash: w.hash}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// firstReads picks the first statement of each read class seen, for
// the wire residual probe.
func firstReads(stmts []*stmt) []*stmt {
	var out []*stmt
	seen := map[int]bool{}
	for _, s := range stmts {
		if !s.write && !seen[s.class] {
			seen[s.class] = true
			out = append(out, s)
		}
	}
	return out
}

// spanMetrics turns the traced section's spans and counters into the
// statement-path metrics.
func spanMetrics(m map[string]metric, td *tracedDB, ref []sample, stmts int) {
	spans := td.tr.spans
	self := selfTimes(spans)
	byName := map[string][]float64{} // self time in ns per span, by name
	var rootTotal float64
	simPath := map[int]float64{} // trace id → parse + plan + execute ns, similarity SELECTs only
	hasSim := map[int]bool{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(self[s.ID]))
		if s.Name == "stmt" {
			rootTotal += float64(s.End - s.Start)
		}
		switch s.Name {
		case "sqlparser.parse", "plan.build", "exec.execute":
			simPath[s.Trace] += float64(s.End - s.Start)
		case "core.group", "incr.result", "lattice.sweep":
			hasSim[s.Trace] = true
		}
	}
	sum := func(names ...string) (t float64) {
		for _, n := range names {
			for _, v := range byName[n] {
				t += v
			}
		}
		return t
	}
	med := func(name string, div float64, unit string) metric {
		return metric{median(byName[name]) / div, unit, len(byName[name])}
	}
	m["sqlparser.parse_us"] = med("sqlparser.parse", 1e3, "us")
	m["sqlparser.sql_bytes_per_stmt"] = metric{float64(td.sqlBytes) / float64(stmts), "bytes", stmts}
	m["plan.build_us"] = med("plan.build", 1e3, "us")
	m["exec.self_ms"] = med("exec.execute", 1e6, "ms")
	m["exec.rows_scanned_per_stmt"] = metric{ratio(float64(td.rowsScanned), float64(td.selects)), "count", td.selects}
	m["exec.rows_out_per_stmt"] = metric{ratio(float64(td.rowsOut), float64(td.selects)), "count", td.selects}
	m["exec.rows_scanned_per_row_out"] = metric{ratio(float64(td.rowsScanned), float64(td.rowsOut)), "ratio", td.selects}
	for name, parts := range map[string][]string{
		"path.parse_share":   {"sqlparser.parse"},
		"path.plan_share":    {"plan.build"},
		"path.exec_share":    {"exec.execute"},
		"path.core_share":    {"core.group"},
		"path.incr_share":    {"incr.append", "incr.result", "incr.remove"},
		"path.lattice_share": {"lattice.append", "lattice.sweep"},
		"path.codec_share":   {"wire.encode", "wire.decode"},
		"path.write_share":   {"session.run"},
	} {
		m[name] = metric{ratio(sum(parts...), rootTotal), "ratio", stmts}
	}
	per := func(v int64) metric { return metric{ratio(float64(v), float64(td.simStmts)), "count", td.simStmts} }
	m["core.distance_computations_per_stmt"] = per(td.total.DistanceComputations)
	m["core.rect_tests_per_stmt"] = per(td.total.RectTests)
	m["core.hull_tests_per_stmt"] = per(td.total.HullTests)
	m["core.index_probes_per_stmt"] = per(td.total.IndexProbes)
	m["core.groups_created_per_stmt"] = per(td.total.GroupsCreated)
	m["wire.encode_us"] = med("wire.encode", 1e3, "us")
	m["wire.decode_us"] = med("wire.decode", 1e3, "us")
	m["wire.bytes_per_stmt"] = metric{ratio(float64(td.wireBytes), float64(td.selects)), "bytes", td.selects}

	// What the engine's own cache protocol costs or saves: the public
	// path's median similarity SELECT minus the same class's median
	// through parse + plan + execute with the benchmark's hooks.
	var layered []float64
	for tr, ns := range simPath {
		if hasSim[tr] {
			layered = append(layered, ns/1e6)
		}
	}
	public := latencies(ref, func(s sample) bool { return similarity(s.class) })
	m["cache.residual_ms"] = metric{percentile(public, 50) - median(layered), "ms", len(layered)}
}

// classMetrics reports where the reference section's statement time
// went by class, the write tail, and the paper's Fig. 12 ratio.
func classMetrics(m map[string]metric, ref []sample) {
	var total float64
	byClass := make([][]float64, numClasses)
	for _, s := range ref {
		ms := float64(s.ns) / 1e6
		byClass[s.class] = append(byClass[s.class], ms)
		total += ms
	}
	for c, v := range byClass {
		var t float64
		for _, ms := range v {
			t += ms
		}
		m["class."+classNames[c]+".time_share"] = metric{ratio(t, total), "ratio", len(v)}
	}
	var sims []float64
	for c, v := range byClass {
		if similarity(c) && len(v) > 0 {
			sims = append(sims, median(v))
		}
	}
	x := 0.0
	if len(byClass[cEqGroupBy]) > 0 {
		x = ratio(median(sims), median(byClass[cEqGroupBy]))
	}
	m["class.sgb_over_groupby_x"] = metric{x, "ratio", len(byClass[cEqGroupBy])}
	reads := latencies(ref, func(s sample) bool { return !s.write })
	writes := latencies(ref, func(s sample) bool { return s.write })
	m["class.query.p95_ms"] = metric{percentile(reads, 95), "ms", len(reads)}
	m["class.write.p50_ms"] = metric{percentile(writes, 50), "ms", len(writes)}
	m["class.write.p95_ms"] = metric{percentile(writes, 95), "ms", len(writes)}
}
