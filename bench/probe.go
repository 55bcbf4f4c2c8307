package main

import (
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/incr"
	"github.com/sgb-db/sgb/internal/partition"
	"github.com/sgb-db/sgb/internal/snapshot"
	"github.com/sgb-db/sgb/internal/storage"
	"github.com/sgb-db/sgb/internal/types"
	"github.com/sgb-db/sgb/internal/wal"
	"github.com/sgb-db/sgb/sgbclient"
	"github.com/sgb-db/sgb/sgbserver"
)

// Probe sizes: every probe works on the workload's own final table,
// capped so that the probes of the largest table stay within seconds.
const (
	probeRows    = 32768
	probeReps    = 3
	probeBatch   = 256 // rows per shadow append, the table-load batch
	probeRemove  = 64  // rows per shadow removal, the sliding-window step
	probeRecords = 512 // shadow WAL records
	probeRecRows = 16  // rows per shadow WAL record, the durable_restart INSERT
	probeEps     = 0.2
)

// timeMS runs f reps times and returns the median duration in ms.
func timeMS(reps int, f func()) float64 {
	var ms []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ms)
}

// probeLayers times each layer's exported functions from outside, on
// the rows the workload left in checkins. Every workload reports every
// probe, so a change to a layer shows its cost on each data shape, also
// where the workload's own statements never reach that layer.
func probeLayers(e *env, w *world, scratch string, reads []*stmt, m map[string]metric) error {
	rows := w.main[0].rows
	if len(rows) > probeRows {
		rows = rows[:probeRows]
	}
	n := float64(len(rows))
	ps := geom.Wrap(2, flatXY(rows))
	var firstErr error
	try := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// core: the one-shot operators, at forced parallelism (so that the
	// pipeline's phase timers are live at every table size) and at 1.
	workers := max(2, runtime.GOMAXPROCS(0))
	var st core.Stats
	all := core.Options{Metric: geom.LInf, Eps: probeEps, Overlap: core.JoinAny, Algorithm: core.GridIndex}
	anyOpt := core.Options{Metric: geom.L2, Eps: probeEps, Algorithm: core.GridIndex}
	group := func(f func(*geom.PointSet, core.Options) (*core.Result, error), opt core.Options, par int, stats *core.Stats) float64 {
		opt.Parallelism = par
		return timeMS(probeReps, func() {
			if stats != nil {
				*stats = core.Stats{}
			}
			opt.Stats = stats
			_, err := f(ps, opt)
			try(err)
		})
	}
	m["core.group_ms"] = metric{group(core.SGBAllSet, all, workers, &st), "ms", probeReps}
	m["core.partition_ms"] = metric{float64(st.PartitionNanos) / 1e6, "ms", 1}
	m["core.connect_ms"] = metric{float64(st.ConnectNanos) / 1e6, "ms", 1}
	m["core.arbitrate_ms"] = metric{float64(st.ArbitrateNanos) / 1e6, "ms", 1}
	m["core.merge_ms"] = metric{float64(st.MergeNanos) / 1e6, "ms", 1}
	m["core.group_p1_ms"] = metric{group(core.SGBAllSet, all, 1, nil), "ms", probeReps}
	m["core.group_any_ms"] = metric{group(core.SGBAnySet, anyOpt, workers, nil), "ms", probeReps}
	m["core.group_any_p1_ms"] = metric{group(core.SGBAnySet, anyOpt, 1, nil), "ms", probeReps}
	m["partition.split_ms"] = metric{timeMS(probeReps, func() { partition.Split(ps, probeEps, workers) }), "ms", probeReps}

	// incr: build a maintained SGB-Any grouping batch by batch, read it,
	// slide the window.
	inc, err := incr.New(incr.Any, anyOpt)
	try(err)
	if err == nil {
		t0 := time.Now()
		for i := 0; i < ps.Len(); i += probeBatch {
			try(inc.AppendSet(ps.Slice(i, min(i+probeBatch, ps.Len()))))
		}
		m["incr.append_us_per_row"] = metric{float64(time.Since(t0).Nanoseconds()) / 1e3 / n, "us", len(rows)}
		m["incr.result_ms"] = metric{timeMS(probeReps, func() { _, err := inc.Result(); try(err) }), "ms", probeReps}
		oldest := make([]int, min(probeRemove, inc.Len()/2))
		for i := range oldest {
			oldest[i] = i
		}
		ms := timeMS(probeReps, func() { try(inc.Remove(oldest)) })
		m["incr.remove_us_per_row"] = metric{ms * 1e3 / float64(len(oldest)), "us", probeReps}
	}

	// lattice: one dendrogram build up to the workloads' ε_max, then cuts.
	var ls core.Stats
	lat, err := core.NewLatticeEvaluator(2, core.Options{Metric: geom.L2, Eps: 0.8, Algorithm: core.GridIndex})
	try(err)
	if err == nil {
		t0 := time.Now()
		try(lat.AppendSet(ps, &ls))
		m["lattice.append_us_per_row"] = metric{float64(time.Since(t0).Nanoseconds()) / 1e3 / n, "us", len(rows)}
		m["lattice.distance_computations_per_row"] = metric{float64(ls.DistanceComputations) / n, "count", len(rows)}
		m["lattice.sweep_ms"] = metric{timeMS(probeReps, func() { _, err := lat.Sweep(streamSweep.eps); try(err) }), "ms", probeReps}
	}

	// storage: a shadow table fed the same rows.
	typed := make([]types.Row, len(rows))
	for i, r := range rows {
		typed[i] = types.Row{types.Int(r.id), types.Float(r.x), types.Float(r.y), types.Float(r.z), types.Int(r.cell)}
	}
	tbl := storage.NewTable("shadow", storage.Schema{
		{Name: "id", Type: types.KindInt}, {Name: "x", Type: types.KindFloat}, {Name: "y", Type: types.KindFloat},
		{Name: "z", Type: types.KindFloat}, {Name: "cell", Type: types.KindInt}})
	t0 := time.Now()
	for i := 0; i < len(typed); i += probeBatch {
		_, err := tbl.InsertBatch(typed[i:min(i+probeBatch, len(typed))])
		try(err)
	}
	m["storage.insert_us_per_row"] = metric{float64(time.Since(t0).Nanoseconds()) / 1e3 / n, "us", len(rows)}
	const snaps = 1000
	t0 = time.Now()
	for i := 0; i < snaps; i++ {
		tbl.Snapshot()
	}
	m["storage.snapshot_us"] = metric{float64(time.Since(t0).Nanoseconds()) / 1e3 / snaps, "us", snaps}
	oldest := make([]int, min(probeRemove, len(typed)/8))
	for i := range oldest {
		oldest[i] = i
	}
	m["storage.delete_ms"] = metric{timeMS(probeReps, func() { try(tbl.DeleteRows(oldest)) }), "ms", probeReps}

	// wal: the same rows as 16-row INSERT records into a scratch log,
	// append and sync timed apart, then replayed.
	walDir := filepath.Join(scratch, "wal-probe")
	defer os.RemoveAll(walDir)
	log, err := wal.Open(walDir, wal.Options{Policy: wal.SyncOff})
	try(err)
	if err == nil {
		var appendUS, syncUS []float64
		var cells int
		for i := 0; i+probeRecRows <= len(typed) && len(appendUS) < probeRecords; i += probeRecRows {
			rec := wal.Insert{Table: "checkins", Rows: typed[i : i+probeRecRows]}
			a := time.Now()
			_, err := log.Append(rec)
			b := time.Now()
			try(err)
			try(log.Sync())
			appendUS = append(appendUS, float64(b.Sub(a).Nanoseconds())/1e3)
			syncUS = append(syncUS, float64(time.Since(b).Nanoseconds())/1e3)
			cells += 5 * probeRecRows
		}
		try(log.Close())
		m["wal.append_us"] = metric{median(appendUS), "us", len(appendUS)}
		m["wal.sync_us"] = metric{median(syncUS), "us", len(syncUS)}
		m["wal.records"] = metric{float64(len(appendUS)), "count", 1}
		m["wal.bytes_per_user_byte"] = metric{ratio(float64(dirBytes(walDir)), float64(8*cells)), "ratio", len(appendUS)}
		m["wal.replay_ms"] = metric{timeMS(probeReps, func() {
			_, err := wal.Replay(walDir, 0, func(uint64, wal.Record) error { return nil })
			try(err)
		}), "ms", probeReps}
	}

	// snapshot: a checkpoint of the live database, and loading it back.
	m["snapshot.checkpoint_ms"] = metric{timeMS(probeReps, func() { try(e.db.Checkpoint()) }), "ms", probeReps}
	if infos, err := snapshot.List(e.dir); err == nil && len(infos) > 0 {
		newest := infos[len(infos)-1].Path
		m["snapshot.load_ms"] = metric{timeMS(probeReps, func() { _, err := snapshot.Load(newest); try(err) }), "ms", probeReps}
		live := 0
		for c := range w.main {
			live += 5*len(w.main[c].rows) + 3*len(w.side[c].rows)
		}
		if fi, err := os.Stat(newest); err == nil {
			m["snapshot.bytes_per_user_byte"] = metric{float64(fi.Size()) / float64(8*live), "ratio", 1}
		}
	}

	// wire: the same reads over a loopback connection and embedded; the
	// difference is what framing, the codec and the socket add.
	try(probeWire(e, w, reads, m))
	return firstErr
}

func probeWire(e *env, w *world, reads []*stmt, m map[string]metric) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv, served := sgbserver.New(e.db), make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns ErrClosed at Shutdown
	}()
	defer func() {
		srv.Shutdown()
		<-served
	}()
	conn, err := sgbclient.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	sess := e.db.NewSession()
	mode := "SET incremental = off"
	if w.sp.incremental {
		mode = "SET incremental = on"
	}
	for _, r := range []runner{conn, sess} {
		if err := runAll(r, []string{mode}); err != nil {
			return err
		}
	}
	var residual []float64
	for _, s := range reads {
		for i := 0; i < probeReps; i++ {
			a := time.Now()
			if _, _, err := conn.Run(s.sql); err != nil {
				return err
			}
			b := time.Now()
			if _, _, err := sess.Run(s.sql); err != nil {
				return err
			}
			residual = append(residual, float64(b.Sub(a)-time.Since(b))/1e3)
		}
	}
	m["wire.residual_us"] = metric{median(residual), "us", len(residual)}
	return nil
}

func flatXY(rows []row) []float64 {
	out := make([]float64, 0, 2*len(rows))
	for _, r := range rows {
		out = append(out, r.x, r.y)
	}
	return out
}

// dirBytes is the total size of the regular files of dir: the WAL and
// checkpoint bytes a crash at this moment would leave.
func dirBytes(dir string) (total int64) {
	entries, _ := os.ReadDir(dir)
	for _, ent := range entries {
		if fi, err := ent.Info(); err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
	}
	return total
}
