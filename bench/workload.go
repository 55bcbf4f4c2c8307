package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"github.com/sgb-db/sgb"
	"github.com/sgb-db/sgb/internal/checkin"
)

// Statement classes. Every timed statement belongs to exactly one; the
// traced run reports each class's share of statement time.
const (
	cAnyL2 = iota
	cAllLinfJoinAny
	cAllL23dEliminate
	cEqGroupBy
	cSweep
	cCube
	cInsert
	cDelete
	cPointSelect
	numClasses
)

var classNames = [numClasses]string{
	"any_l2", "all_linf_joinany", "all_l2_3d_eliminate", "eq_groupby",
	"sweep", "cube", "insert", "delete", "point_select",
}

// row is one generated check-in: the skewed (x, y) position from
// internal/checkin plus a synthetic third attribute and an integer
// cell id for the equality GROUP BY baseline.
type row struct {
	id      int64
	x, y, z float64
	cell    int64
}

// genRows makes n rows from the seed: the Brightkite-profile check-in
// generator seeded with it, a Gaussian z, and a 4-degree cell id.
// Row i has id i.
func genRows(seed int64, n int) []row {
	cfg := checkin.Brightkite(n)
	cfg.Seed = seed
	pts := checkin.Points(cfg)
	r := rand.New(rand.NewSource(seed ^ 0x5a17))
	rows := make([]row, n)
	for i, p := range pts {
		rows[i] = row{
			id: int64(i), x: p[0], y: p[1], z: r.NormFloat64() * 0.25,
			cell: int64(math.Floor(p[0]/4))*1000 + int64(math.Floor(p[1]/4)),
		}
	}
	return rows
}

// table is the benchmark's model of one SQL table: the rows one
// statement stream has put there and not deleted, in insertion order.
type table struct {
	rows     []row
	inserted int64 // rows ever inserted through this model
}

// delete removes the rows pred selects and returns their indexes.
func (t *table) delete(pred func(row) bool) []int {
	var idx []int
	kept := t.rows[:0:0]
	for i, r := range t.rows {
		if pred(r) {
			idx = append(idx, i)
		} else {
			kept = append(kept, r)
		}
	}
	t.rows = kept
	return idx
}

// Aggregates a similarity statement may select.
const (
	aCount = iota
	aAvgX
	aSumX
	aMaxY
	aMinY
)

var aggSQL = []string{"count(*)", "avg(x)", "sum(x)", "max(y)", "min(y)"}

// variant describes one SELECT shape. The SQL text and the oracle's
// expected answer are both derived from these fields, so they cannot
// drift apart.
type variant struct {
	class    int
	eq       bool // GROUP BY cell, the standard group-by baseline
	any      bool // DISTANCE-TO-ANY, else DISTANCE-TO-ALL
	metric   sgb.Metric
	overlap  sgb.Overlap
	dims     int       // 2: (x, y); 3: (x, y, z)
	eps      []float64 // one level: WITHIN; several: EPS IN
	cube     bool      // SIMILARITY CUBE BY EPS
	aggs     []int
	minCount int // HAVING count(*) >= minCount
	topK     int // ORDER BY 1 DESC, 2 DESC LIMIT topK
}

func (v variant) sweep() bool { return len(v.eps) > 1 }

func (v variant) sql() string {
	if v.eq {
		return "SELECT cell, count(*), avg(x), max(y) FROM checkins GROUP BY cell"
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	switch {
	case v.cube:
		b.WriteString("*")
	default:
		if v.sweep() {
			b.WriteString("eps, ")
		}
		for i, a := range v.aggs {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(aggSQL[a])
		}
	}
	b.WriteString(" FROM checkins GROUP BY x, y")
	if v.dims == 3 {
		b.WriteString(", z")
	}
	if v.any {
		b.WriteString(" DISTANCE-TO-ANY ")
	} else {
		b.WriteString(" DISTANCE-TO-ALL ")
	}
	if v.metric == sgb.L2 {
		b.WriteString("L2")
	} else {
		b.WriteString("LINF")
	}
	if v.sweep() {
		b.WriteString(" EPS IN (")
		for i, e := range v.eps {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(fmtFloat(e))
		}
		b.WriteString(")")
	} else {
		b.WriteString(" WITHIN " + fmtFloat(v.eps[0]))
	}
	if !v.any {
		b.WriteString(" ON-OVERLAP " + v.overlap.String())
	}
	if v.cube {
		b.WriteString(" SIMILARITY CUBE BY EPS")
	}
	if v.minCount > 0 {
		fmt.Fprintf(&b, " HAVING count(*) >= %d", v.minCount)
	}
	if v.topK > 0 {
		fmt.Fprintf(&b, " ORDER BY 1 DESC, 2 DESC LIMIT %d", v.topK)
	}
	return b.String()
}

// stmt is the variant as a read with nothing but errors checked.
func (v variant) stmt() *stmt { return &stmt{sql: v.sql(), class: v.class} }

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

var stdAggs = []int{aCount, aAvgX, aMaxY}

func anyL2(eps float64) variant {
	return variant{class: cAnyL2, any: true, metric: sgb.L2, dims: 2, eps: []float64{eps}, aggs: stdAggs}
}

func allLinf(eps float64) variant {
	return variant{class: cAllLinfJoinAny, metric: sgb.LInf, overlap: sgb.JoinAny, dims: 2, eps: []float64{eps}, aggs: stdAggs}
}

func allL23d(eps float64) variant {
	return variant{class: cAllL23dEliminate, metric: sgb.L2, overlap: sgb.Eliminate, dims: 3, eps: []float64{eps}, aggs: stdAggs}
}

func sweepL2(aggs []int, eps ...float64) variant {
	return variant{class: cSweep, any: true, metric: sgb.L2, dims: 2, eps: eps, aggs: aggs}
}

func cubeLinf(eps ...float64) variant {
	return variant{class: cCube, any: true, metric: sgb.LInf, dims: 2, eps: eps, cube: true}
}

// stmt is one generated statement with what the benchmark will check
// about its answer.
type stmt struct {
	sql   string
	class int
	write bool
	// want is the exact expected answer, set where the statement reads a
	// table the stream does not change.
	want *digest
	// wantSum, when positive, is what the count(*) column (sumCol) must
	// add up to: every row of the table lands in exactly one group per
	// ε level. It is the per-statement check on tables that change.
	wantSum int64
	sumCol  int
	// wantN is the affected-row count a write must report.
	wantN int
	// delIdx lists, for a DELETE on checkins, the table indexes it
	// removes; the traced run feeds them to its shadow evaluators.
	delIdx []int
}

// stream yields a client's statements in order. Streams are closed
// loops: the next statement is generated after the previous returned.
type stream func() *stmt

// spec is one workload.
type spec struct {
	name, why   string
	clients     int
	wire        bool // clients are sgbclient connections to a loopback sgbserver
	incremental bool
	n           int // rows of checkins loaded in set-up
	pool        int // rows generated; streams that insert draw the rest
	// static lists the variants whose exact answers the oracle
	// precomputes: the reads of a checkins table the streams never change.
	static []variant
	// checkpointEvery, when positive, is SET before the table load.
	checkpointEvery int
	// checkpoint ends set-up with a CHECKPOINT, so the crash image holds
	// the maintained evaluators.
	checkpoint bool
	// warm lists the statements set-up runs once to build the cached
	// groupings (largest ε list first, so no later sweep rebuilds).
	warm []variant
	// verify lists the groupings the final and recovery checks regroup
	// from scratch.
	verify []variant
	// round is the length of one cycle of a client's stream: the steady
	// rate comes from the median round time, and warm-ups and traced runs
	// execute whole rounds.
	round int
	// warmRounds is how many untimed rounds each client runs before the
	// timed section (at least one).
	warmRounds int
	// traceRounds is how many rounds the fixed-count reference section
	// of a traced run executes per 12 s of --seconds.
	traceRounds int
	streams     func(w *world) []stream
}

// world is one run's generated inputs and table models.
type world struct {
	sp      *spec
	seed    int64
	pool    []row    // pool[i].id == i; checkins starts as pool[:n]
	next    int      // next unused pool row
	main    []*table // per client: the checkins rows the client owns
	side    []*table // per client: the events rows the client owns
	clients int
	want    map[string]*digest // SQL text → expected answer, for reads of an unchanging checkins
	hash    uint64             // FNV-1a over every generated statement
}

func newWorld(sp *spec, seed int64, clients int, poolRows int) *world {
	w := &world{sp: sp, seed: seed, pool: genRows(seed, poolRows), next: sp.n, clients: clients, hash: 14695981039346656037,
		want: map[string]*digest{}}
	for c := 0; c < clients; c++ {
		w.main = append(w.main, &table{})
		w.side = append(w.side, &table{})
	}
	// Initial rows are dealt to the clients by id so that each client
	// deletes only rows it owns and the final row set does not depend
	// on how the clients interleave.
	for _, r := range w.pool[:sp.n] {
		t := w.main[int(r.id)%clients]
		t.rows = append(t.rows, r)
		t.inserted++
	}
	return w
}

// rng is client c's generator for everything a stream draws.
func (w *world) rng(c int) *rand.Rand { return rand.New(rand.NewSource(w.seed<<8 + int64(c) + 1)) }

// fresh returns k unused generated rows (wrapping around the pool with
// new ids if a run outlasts it).
func (w *world) fresh(k int) []row {
	out := make([]row, k)
	for i := range out {
		r := w.pool[w.next%len(w.pool)]
		r.id = int64(w.next)
		out[i] = r
		w.next++
	}
	return out
}

// note folds a generated statement into the stream hash.
func (w *world) note(s *stmt) *stmt {
	for i := 0; i < len(s.sql); i++ {
		w.hash = (w.hash ^ uint64(s.sql[i])) * 1099511628211
	}
	w.hash = (w.hash ^ '\n') * 1099511628211
	return s
}

func appendRowSQL(b []byte, r row, cols int) []byte {
	b = append(b, '(')
	b = strconv.AppendInt(b, r.id, 10)
	b = append(b, ',')
	b = strconv.AppendFloat(b, r.x, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, r.y, 'g', -1, 64)
	if cols == 5 {
		b = append(b, ',')
		b = strconv.AppendFloat(b, r.z, 'g', -1, 64)
		b = append(b, ',')
		b = strconv.AppendInt(b, r.cell, 10)
	}
	return append(b, ')')
}

// insertSQL builds one INSERT statement; cols is 5 for checkins and 3
// for events.
func insertSQL(tbl string, rows []row, cols int) string {
	b := make([]byte, 0, 32+64*len(rows))
	b = append(b, "INSERT INTO "...)
	b = append(b, tbl...)
	b = append(b, " VALUES "...)
	for i, r := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendRowSQL(b, r, cols)
	}
	return string(b)
}

// insertMain appends fresh rows to checkins through client c.
func (w *world) insertMain(c, k int) *stmt {
	rows := w.fresh(k)
	t := w.main[c]
	t.rows = append(t.rows, rows...)
	t.inserted += int64(k)
	return &stmt{sql: insertSQL("checkins", rows, 5), class: cInsert, write: true, wantN: k}
}

// deleteOldest removes client c's k oldest checkins rows (its k
// smallest ids: ids only grow).
func (w *world) deleteOldest(c, k int) *stmt {
	t := w.main[c]
	bound := t.rows[k].id
	idx := t.delete(func(r row) bool { return r.id < bound })
	return &stmt{sql: "DELETE FROM checkins WHERE id < " + strconv.FormatInt(bound, 10),
		class: cDelete, write: true, wantN: len(idx), delIdx: idx}
}

const sideBatch = 16

// sideWriter yields the trickle of writes the read-only workloads send
// to the events table: two 16-row INSERTs, then a DELETE of the oldest
// batch. It never touches checkins, so cached groupings stay in sync,
// but it takes the writer lock, logs, and syncs like any other write.
func (w *world) sideWriter(c int, r *rand.Rand) func() *stmt {
	t := w.side[c]
	base := int64(c+1) << 32 // each client's ids are a range of their own
	nextID := base
	k := 0
	return func() *stmt {
		k++
		if k%3 == 0 {
			bound := t.rows[sideBatch].id
			n := len(t.delete(func(r row) bool { return r.id < bound }))
			return &stmt{sql: fmt.Sprintf("DELETE FROM events WHERE id >= %d AND id < %d", base, bound),
				class: cDelete, write: true, wantN: n}
		}
		rows := make([]row, sideBatch)
		for i := range rows {
			rows[i] = row{id: nextID, x: r.Float64()*130 - 60, y: r.Float64()*360 - 180}
			nextID++
		}
		t.rows = append(t.rows, rows...)
		t.inserted += sideBatch
		return &stmt{sql: insertSQL("events", rows, 3), class: cInsert, write: true, wantN: sideBatch}
	}
}

// readLoop cycles the variants over an unchanging checkins table,
// starting at offset, with one events write after every second read.
func (w *world) readLoop(c int, vs []variant, offset int) stream {
	side := w.sideWriter(c, w.rng(c))
	reads := make([]*stmt, len(vs))
	for i, v := range vs {
		reads[i] = v.stmt()
		reads[i].want = w.want[reads[i].sql]
	}
	i, sinceWrite := offset, 0
	return func() *stmt {
		if sinceWrite == 2 {
			sinceWrite = 0
			return w.note(side())
		}
		sinceWrite++
		s := reads[i%len(reads)]
		i++
		return w.note(s)
	}
}

// countSum is the read check on a changing table: the statement's
// count(*) column must add up to levels × the rows now in the table.
func (w *world) countSum(v variant) *stmt {
	n := 0
	for _, t := range w.main {
		n += len(t.rows)
	}
	s := v.stmt()
	if w.clients == 1 {
		s.wantSum = int64(n * len(v.eps))
		if v.sweep() {
			s.sumCol = 1
		}
	}
	return s
}

var (
	// Every read-only workload cycles an odd number of equally frequent
	// reads, so that the median SELECT falls inside one statement's
	// latency mode; with an even number it falls in the gap between two
	// modes and flips between them from run to run. For that reason the
	// GROUP BY baseline runs twice per cycle here.
	coldVariants = []variant{
		anyL2(0.05), allLinf(0.05), allL23d(0.05), {class: cEqGroupBy, eq: true},
		anyL2(0.2), allLinf(0.2), allL23d(0.2),
		anyL2(0.8), allLinf(0.8), allL23d(0.8), {class: cEqGroupBy, eq: true},
	}
	warmAny    = anyL2(0.2)
	warmAll    = allLinf(0.2)
	warmSweeps = []variant{
		sweepL2([]int{aCount, aAvgX}, 0.1, 0.4, 0.8),
		sweepL2([]int{aCount, aMaxY}, 0.05, 0.2),
		sweepL2([]int{aCount, aSumX}, 0.2, 0.4, 0.6),
	}
	warmCube = cubeLinf(0.05, 0.1, 0.2, 0.4, 0.8)
	// warmVariants are the COMPARE-style statements of sql_warm: several
	// aggregate lists, a HAVING and an ORDER BY … LIMIT over each of two
	// cached groupings, three ε lists under one ε_max, and one cube.
	warmVariants = []variant{
		warmAny,
		warmAll,
		warmSweeps[0],
		with(warmAny, func(v *variant) { v.aggs = []int{aCount, aSumX}; v.minCount = 3 }),
		with(warmAll, func(v *variant) { v.aggs = []int{aCount, aMinY}; v.minCount = 3 }),
		warmSweeps[1],
		with(warmAny, func(v *variant) { v.aggs = []int{aCount, aMaxY}; v.topK = 10 }),
		with(warmAll, func(v *variant) { v.aggs = []int{aCount, aMaxY}; v.topK = 10 }),
		warmSweeps[2],
		warmCube,
		with(warmAny, func(v *variant) { v.aggs = []int{aCount, aAvgX, aMinY} }),
	}
	streamSweep  = sweepL2([]int{aCount}, 0.1, 0.2, 0.4)
	cubeVariants = []variant{
		sweepL2([]int{aCount, aAvgX}, 0.1, 0.4),
		sweepL2([]int{aCount, aAvgX}, 0.1, 0.2, 0.4),
		sweepL2([]int{aCount, aAvgX}, 0.05, 0.1, 0.2, 0.4, 0.8),
		sweepL2([]int{aCount, aAvgX}, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8),
		cubeLinf(0.05, 0.1, 0.2, 0.4, 0.8),
	}
	wireTop = with(warmAny, func(v *variant) { v.topK = 10 })
)

func with(v variant, f func(*variant)) variant {
	f(&v)
	return v
}

// specs lists the workloads in the order BENCHMARK.json does. The
// sizes were chosen on a 2-core sandbox so that the timed section
// holds at least 200 SELECTs.
var specs = []*spec{
	{
		name:    "sql_cold",
		why:     "one-shot similarity SELECTs at three ε plus the GROUP BY baseline: core does the work, the cache none",
		clients: 1, n: 12000, pool: 12000, round: 33, traceRounds: 8,
		static: coldVariants,
		verify: []variant{warmAny, warmAll},
		streams: func(w *world) []stream {
			return []stream{w.readLoop(0, coldVariants, 0)}
		},
	},
	{
		name:    "sql_warm",
		why:     "two sessions re-aggregate four cached groupings of an unchanged table: exec, cache lock and lattice cuts, no distance work",
		clients: 2, incremental: true, n: 32000, pool: 32000, checkpoint: true, round: 33, traceRounds: 12,
		static: warmVariants,
		warm:   []variant{warmAny, warmAll, warmSweeps[0], warmCube},
		verify: []variant{warmAny, warmAll},
		streams: func(w *world) []stream {
			out := make([]stream, w.clients)
			for c := range out {
				out[c] = w.readLoop(c, warmVariants, 6*c)
			}
			return out
		},
	},
	{
		name:    "stream_maintain",
		why:     "appends, sliding-window deletes and reads over maintained groupings: incr append/remove and lattice rebuild",
		clients: 1, incremental: true, n: 16000, pool: 64000, checkpoint: true, round: 9, traceRounds: 32,
		warm:   []variant{warmAny, warmAll, streamSweep},
		verify: []variant{warmAny, warmAll},
		// A round inserts as many rows as it deletes, so the table the reads
		// scan has one size however many rounds the clock lets through.
		streams: func(w *world) []stream {
			i := 0
			return []stream{func() *stmt {
				defer func() { i++ }()
				switch i % 9 {
				case 0, 4:
					return w.note(w.insertMain(0, 128))
				case 1, 5:
					return w.note(w.countSum(warmAny))
				case 2, 6:
					return w.note(w.countSum(warmAll))
				case 3, 7:
					return w.note(w.countSum(streamSweep))
				default:
					return w.note(w.deleteOldest(0, 256))
				}
			}}
		},
	},
	{
		name:    "durable_restart",
		why:     "small synced writes with a checkpoint every 256 records, then recovery of the crash image: wal, snapshot, replay",
		clients: 1, incremental: true, n: 8000, pool: 40000, checkpointEvery: 256, round: 33, traceRounds: 96,
		// Twenty warm-up rounds log 640 records: two automatic checkpoints,
		// so the stored bytes are those of a log that has been pruned.
		warmRounds: 20,
		warm:       []variant{warmAny},
		verify:     []variant{warmAny},
		// Thirty writes to the unread events table (16-row INSERTs, a DELETE
		// of the oldest batch after every second), one 16-row INSERT into
		// checkins and a DELETE of its 16 oldest rows, one read: every
		// write is a synced log record, every eighth round checkpoints, and
		// both tables keep their size.
		streams: func(w *world) []stream {
			side := w.sideWriter(0, w.rng(0))
			i := 0
			return []stream{func() *stmt {
				defer func() { i++ }()
				switch i % 33 {
				case 0:
					return w.note(w.insertMain(0, 16))
				case 31:
					return w.note(w.deleteOldest(0, 16))
				case 32:
					return w.note(w.countSum(warmAny))
				default:
					return w.note(side())
				}
			}}
		},
	},
	{
		name:    "wire_mixed",
		why:     "two connections send small reads and single-row writes over loopback: per-statement fixed cost in wire, parse, plan is largest here",
		clients: 2, wire: true, incremental: true, n: 4000, pool: 8000, checkpoint: true, round: 50, traceRounds: 40,
		warm:   []variant{warmAny},
		verify: []variant{warmAny},
		streams: func(w *world) []stream {
			out := make([]stream, w.clients)
			for c := range out {
				out[c] = w.wireStream(c, w.rng(c))
			}
			return out
		},
	},
	{
		name:    "eps_cube_cold",
		why:     "EPS IN lists of 2, 3, 5 and 8 levels and the ε-cube, each a fresh dendrogram build: lattice sweep and compaction",
		clients: 1, n: 8000, pool: 8000, round: 15, traceRounds: 20,
		static: cubeVariants,
		verify: []variant{warmAny},
		streams: func(w *world) []stream {
			return []stream{w.readLoop(0, cubeVariants, 0)}
		},
	},
}

// wireStream draws client c's statement mix: 70 % top-10 similarity
// SELECT, 10 % full similarity SELECT, 5 % point SELECT, 10 %
// single-row INSERT, 5 % single-row DELETE of a row the client owns.
func (w *world) wireStream(c int, r *rand.Rand) stream {
	t := w.main[c]
	nextID := int64(c+1) << 32
	return func() *stmt {
		switch p := r.Float64(); {
		case p < 0.70:
			return w.note(wireTop.stmt()) // a LIMIT hides the rows a sum would need: errors only
		case p < 0.80:
			return w.note(w.countSum(warmAny))
		case p < 0.85:
			return w.note(&stmt{sql: "SELECT id, x, y FROM checkins WHERE id < 100", class: cPointSelect})
		case p < 0.95 || len(t.rows) < 64:
			nr := w.pool[r.Intn(len(w.pool))]
			nr.id = nextID
			nextID++
			t.rows = append(t.rows, nr)
			t.inserted++
			return w.note(&stmt{sql: insertSQL("checkins", []row{nr}, 5), class: cInsert, write: true, wantN: 1})
		default:
			id := t.rows[r.Intn(len(t.rows))].id
			idx := t.delete(func(r row) bool { return r.id == id })
			return w.note(&stmt{sql: "DELETE FROM checkins WHERE id = " + strconv.FormatInt(id, 10),
				class: cDelete, write: true, wantN: 1, delIdx: idx})
		}
	}
}

func findSpec(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}
