package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/sgb-db/sgb"
	"github.com/sgb-db/sgb/internal/snapshot"
	"github.com/sgb-db/sgb/sgbclient"
	"github.com/sgb-db/sgb/sgbserver"
)

// runner is what a client drives: an embedded session or a wire
// connection. Both expose the same Run.
type runner interface {
	Run(sql string) (*sgb.Rows, int, error)
}

// env is one set-up database with its clients.
type env struct {
	dir     string
	db      *sgb.DB
	srv     *sgbserver.Server
	served  chan struct{} // closed when the accept loop has returned
	conns   []*sgbclient.Conn
	runners []runner
}

const (
	mainSchema = "CREATE TABLE checkins (id INT, x FLOAT, y FLOAT, z FLOAT, cell INT)"
	sideSchema = "CREATE TABLE events (id INT, x FLOAT, y FLOAT)"
	loadBatch  = 256
)

// setUp builds the database a workload runs against, through public
// entry points only: a persistent directory (flush policy "always",
// the OpenDir default), the table load as 256-row INSERTs, the
// clients with their SET state, one execution of each cached
// grouping, and a CHECKPOINT where the workload asks for one.
func setUp(w *world, dir string) (*env, error) {
	sp := w.sp
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db, err := sgb.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir, db: db}
	admin := db.NewSession()
	stmts := []string{mainSchema, sideSchema}
	if sp.checkpointEvery > 0 {
		stmts = append(stmts, "SET checkpoint_every = "+strconv.Itoa(sp.checkpointEvery))
	}
	for i := 0; i < sp.n; i += loadBatch {
		stmts = append(stmts, insertSQL("checkins", w.pool[i:min(i+loadBatch, sp.n)], 5))
	}
	if err := runAll(admin, stmts); err != nil {
		e.close()
		return nil, err
	}
	if sp.wire {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		e.srv, e.served = sgbserver.New(db), make(chan struct{})
		go func() {
			defer close(e.served)
			_ = e.srv.Serve(ln) // returns ErrClosed at Shutdown
		}()
		for c := 0; c < w.clients; c++ {
			conn, err := sgbclient.Dial(ln.Addr().String())
			if err != nil {
				e.close()
				return nil, err
			}
			e.conns = append(e.conns, conn)
			e.runners = append(e.runners, conn)
		}
	} else {
		for c := 0; c < w.clients; c++ {
			e.runners = append(e.runners, db.NewSession())
		}
	}
	mode := "SET incremental = off"
	if sp.incremental {
		mode = "SET incremental = on"
	}
	for _, r := range e.runners {
		if err := runAll(r, []string{mode}); err != nil {
			e.close()
			return nil, err
		}
	}
	var warm []string
	for _, v := range sp.warm {
		warm = append(warm, v.sql())
	}
	if sp.checkpoint {
		warm = append(warm, "CHECKPOINT")
	}
	if err := runAll(e.runners[0], warm); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func runAll(r runner, stmts []string) error {
	for _, s := range stmts {
		if _, _, err := r.Run(s); err != nil {
			return fmt.Errorf("%.60s: %w", s, err)
		}
	}
	return nil
}

// close stops the server and its connections, closes the database and
// removes its directory.
func (e *env) close() {
	for _, c := range e.conns {
		c.Close()
	}
	if e.srv != nil {
		e.srv.Shutdown()
		<-e.served
	}
	e.db.Close()
	os.RemoveAll(e.dir)
}

// sample is one timed statement.
type sample struct {
	client int
	class  int
	write  bool
	ok     bool
	ns     int64 // latency
	end    int64 // completion time since the section started
}

// drive runs every client's stream concurrently, closed-loop, until
// stop(client, statements so far) says so, and returns the samples
// and the wall time from the common start to the last completion.
// observe, when non-nil, brackets every statement (single-client runs
// only). With calibrate set each client also runs the reference kernel
// between statements (see calib.go); the kernel's timings are returned,
// and the time spent in it is left out of the samples' completion times.
func drive(e *env, streams []stream, stop func(c, k int) bool, observe func(s *stmt) func(*sgb.Rows), calibrate bool) ([]sample, time.Duration, []float64) {
	per := make([][]sample, len(streams))
	cals := make([]calibrator, len(streams))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next, r, cal := streams[c], e.runners[c], &cals[c]
			cal.last = start
			for k := 0; !stop(c, k); k++ {
				if calibrate {
					cal.due()
				}
				s := next()
				var after func(*sgb.Rows)
				if observe != nil {
					after = observe(s)
				}
				t0 := time.Now()
				rows, n, err := r.Run(s.sql)
				ns := time.Since(t0).Nanoseconds()
				if after != nil {
					after(rows)
				}
				ok := s.check(rows, n, err)
				if !ok {
					fmt.Fprintf(os.Stderr, "bench: statement failed (err=%v): %.120s\n", err, s.sql)
				}
				per[c] = append(per[c], sample{client: c, class: s.class, write: s.write, ok: ok, ns: ns,
					end: (time.Since(start) - cal.busy).Nanoseconds()})
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sample
	var kernel []float64
	for c, p := range per {
		all = append(all, p...)
		kernel = append(kernel, cals[c].ms...)
	}
	return all, wall, kernel
}

// steadyRate is the statements per second the clients sustain: per
// client, the round length divided by its median round time, summed.
// The median round ignores the bursts of interference a small shared
// sandbox adds to some rounds, which a plain count over wall time
// would average in. Clients that completed no full round fall back to
// that plain ratio.
func steadyRate(samples []sample, clients, round int, wall time.Duration) float64 {
	var rate float64
	for c := 0; c < clients; c++ {
		var ends []int64
		for _, s := range samples {
			if s.client == c {
				ends = append(ends, s.end)
			}
		}
		var rounds []float64
		for k := 2*round - 1; k < len(ends); k += round {
			rounds = append(rounds, float64(ends[k]-ends[k-round])/1e9)
		}
		if len(rounds) == 0 {
			rate += float64(len(ends)) / wall.Seconds()
			continue
		}
		rate += float64(round) / median(rounds)
	}
	return rate
}

// percentile is the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p/100+0.9999999) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencies returns the sorted millisecond latencies of the samples
// keep selects.
func latencies(samples []sample, keep func(sample) bool) []float64 {
	var ms []float64
	for _, s := range samples {
		if keep(s) {
			ms = append(ms, float64(s.ns)/1e6)
		}
	}
	sort.Float64s(ms)
	return ms
}

// check is the tally of correctness checks outside the timed loop.
type check struct{ attempted, failed int }

func (c *check) note(ok bool, what string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "bench: check failed: "+what+"\n", args...)
	}
}

// verifyDB checks a database against the models: both tables hold
// exactly the modelled rows, and each of the workload's groupings,
// asked through a session with the workload's incremental setting,
// equals a from-scratch regroup of the rows read back in table order.
func verifyDB(db *sgb.DB, w *world, ck *check, where string) {
	sess := db.NewSession()
	if w.sp.incremental {
		if _, _, err := sess.Run("SET incremental = on"); err != nil {
			ck.note(false, "%s: %v", where, err)
			return
		}
	}
	read := func(tbl, cols string, models []*table) []row {
		res, _, err := sess.Run("SELECT " + cols + " FROM " + tbl)
		if err != nil {
			ck.note(false, "%s: reading %s: %v", where, tbl, err)
			return nil
		}
		got := make([]row, len(res.Data))
		for i, r := range res.Data {
			got[i] = row{id: r[0].I, x: r[1].F, y: r[2].F}
			if len(r) > 3 {
				got[i].z = r[3].F
			}
		}
		var want []row
		for _, t := range models {
			want = append(want, t.rows...)
		}
		ck.note(len(got) == len(want) && rowsDigest(got) == rowsDigest(want),
			"%s: %s holds %d rows, the model %d, or their contents differ", where, tbl, len(got), len(want))
		return got
	}
	read("events", "id, x, y", w.side)
	rows := read("checkins", "id, x, y, z", w.main)
	if rows == nil {
		return
	}
	o := newOracle(rows, w.sp.verify)
	for _, v := range w.sp.verify {
		want, err := o.expect(v)
		if err != nil {
			ck.note(false, "%s: oracle: %v", where, err)
			continue
		}
		res, _, err := sess.Run(v.sql())
		ck.note(err == nil && want.equal(digestRows(res.Data)), "%s: regroup mismatch (err=%v): %s", where, err, v.sql())
	}
}

// recovery is what reopening the crash image showed.
type recovery struct {
	seconds float64 // median sgb.OpenDir time over the copies
	copies  int
	info    sgb.RecoveryInfo
}

// crashAndRecover copies the database directory while the database is
// still open — with flush policy "always" every acknowledged statement
// is already synced, so the copy is what a crash would leave — reopens
// a fresh copy, and checks it against the models. With timed set it
// reopens copy after copy (see moreReps) for a median recovery time.
func crashAndRecover(e *env, w *world, ck *check, timed bool) (recovery, error) {
	var rec recovery
	var secs []float64
	more := func() bool { return len(secs) == 0 || (timed && moreReps(secs)) }
	for i := 0; more(); i++ {
		img := fmt.Sprintf("%s-image%d", e.dir, i)
		if err := copyDir(e.dir, img); err != nil {
			return rec, err
		}
		runtime.GC() // so that no collection of the run's heap lands inside the timed reopen
		t0 := time.Now()
		db, err := sgb.OpenDir(img)
		secs = append(secs, time.Since(t0).Seconds())
		if err != nil {
			os.RemoveAll(img)
			return rec, err
		}
		if !more() { // the last copy
			rec.info = db.Recovery()
			verifyDB(db, w, ck, "recovered image")
		}
		db.Close()
		os.RemoveAll(img)
	}
	rec.seconds, rec.copies = median(secs), len(secs)
	return rec, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		// A checkpoint's temporary file may vanish between the listing
		// and the copy; it is not part of the image.
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	_, err = io.Copy(out, in)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// userBytes is 8 bytes per numeric cell the models inserted: five per
// checkins row, three per events row.
func userBytes(w *world) float64 {
	var cells int64
	for c := range w.main {
		cells += 5*w.main[c].inserted + 3*w.side[c].inserted
	}
	return float64(8 * cells)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations the value summarizes. It is left
	// out of the result line, whose keys the driver fixes, and written to
	// the run file the suite reads.
	Samples int `json:"samples,omitempty"`
}

// result is what one run of one workload produced.
type result struct {
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	streamHash uint64
}

// Set-up and recovery are repeated and their median reported: at least
// minReps times, and for as long as the repetitions have taken less
// than repBudget in all, up to maxReps — a 5 ms recovery needs more
// repetitions than a 1 s one for its median to hold still.
const (
	minReps   = 5
	maxReps   = 25
	repBudget = 1.5 // seconds
	// setUpKernelRuns is how often the reference kernel runs before each
	// set-up and after the last.
	setUpKernelRuns = 10
)

func moreReps(secs []float64) bool {
	var total float64
	for _, s := range secs {
		total += s
	}
	return len(secs) < minReps || (total < repBudget && len(secs) < maxReps)
}

// setUpMedian sets the workload up repeatedly, keeps the last
// database, and returns it with the median set-up time, in reference
// time by the kernel runs made around every set-up, and the count.
func setUpMedian(w *world, scratch string) (*env, float64, int, error) {
	var secs []float64
	var e *env
	var cal calibrator
	for i := 0; moreReps(secs); i++ {
		if e != nil {
			e.close()
		}
		cal.run(setUpKernelRuns)
		t0 := time.Now()
		var err error
		e, err = setUp(w, filepath.Join(scratch, fmt.Sprintf("db%d", i)))
		if err != nil {
			return nil, 0, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	cal.run(setUpKernelRuns)
	return e, median(secs) * refScale(cal.ms), len(secs), nil
}

// prepare makes the world and its static-table oracle.
func prepare(sp *spec, seed int64, clients int) (*world, error) {
	w := newWorld(sp, seed, clients, sp.pool)
	o := newOracle(w.pool[:sp.n], sp.static)
	for _, v := range sp.static {
		d, err := o.expect(v)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", v.sql(), err)
		}
		w.want[v.sql()] = d
	}
	return w, nil
}

// warmUp runs the workload's untimed rounds on every client. They are
// a fixed number of statements, so the database they leave is the same
// on every run of one seed.
func warmUp(e *env, w *world, streams []stream, ck *check) {
	n := max(1, w.sp.warmRounds) * w.sp.round
	samples, _, _ := drive(e, streams, func(_, k int) bool { return k >= n }, nil, false)
	tally(samples, ck)
}

func tally(samples []sample, ck *check) {
	for _, s := range samples {
		ck.attempted++
		if !s.ok {
			ck.failed++
		}
	}
}

// newestSnapshot is the WAL sequence the newest checkpoint file of dir
// covers, 0 when there is none.
func newestSnapshot(dir string) uint64 {
	infos, err := snapshot.List(dir)
	if err != nil || len(infos) == 0 {
		return 0
	}
	return infos[len(infos)-1].Seq
}

// runEndToEnd is a --trace 0 run: the workload at its stated client
// count, timed for the given duration, reporting the end-to-end
// metrics.
func runEndToEnd(sp *spec, seed int64, dur time.Duration, scratch string) (*result, error) {
	if sp.clients > runtime.GOMAXPROCS(0) {
		return nil, fmt.Errorf("workload %s needs %d clients but GOMAXPROCS is %d", sp.name, sp.clients, runtime.GOMAXPROCS(0))
	}
	w, err := prepare(sp, seed, sp.clients)
	if err != nil {
		return nil, err
	}
	e, setupS, setUps, err := setUpMedian(w, scratch)
	if err != nil {
		return nil, err
	}
	defer e.close()
	streams := sp.streams(w)
	var ck check
	warmUp(e, w, streams, &ck)
	// Set-up and warm-up are fixed statement counts, so what is on disk
	// now repeats from run to run; after the timed section it would
	// depend on how many statements the clock let through.
	stored, user := dirBytes(e.dir), userBytes(w)

	start := time.Now()
	samples, wall, kernel := drive(e, streams, func(_, _ int) bool { return time.Since(start) >= dur }, nil, true)
	tally(samples, &ck)
	rss := peakRSSMB() // before the checks below allocate

	verifyDB(e.db, w, &ck, "final state")
	if _, err := crashAndRecover(e, w, &ck, false); err != nil {
		return nil, err
	}

	reads := latencies(samples, func(s sample) bool { return !s.write })
	scale := refScale(kernel)
	rate, p50 := steadyRate(samples, sp.clients, sp.round, wall), percentile(reads, 50)
	fmt.Fprintf(os.Stderr, "bench: reference kernel %.4f ms over %d runs (%.3f ms is scale 1): scale %.4f; unscaled stmts_per_s %.4f, query_p50_ms %.4f\n",
		kernelMs(kernel), len(kernel), refKernelMs, scale, rate, p50)
	res := &result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, streamHash: w.hash,
		Metrics: map[string]metric{
			"setup_s":                    {setupS, "s", setUps},
			"stmts_per_s":                {rate / scale, "1/s", len(samples)},
			"query_p50_ms":               {p50 * scale, "ms", len(reads)},
			"peak_rss_mb":                {rss, "MB", 1},
			"stored_bytes_per_user_byte": {float64(stored) / user, "ratio", 1},
		}}
	return res, nil
}
