// Command sgbsql is an interactive SQL shell for the SGB engine. It
// speaks the paper's extended dialect, so similarity grouping works at
// the prompt:
//
//	sgbsql -demo
//	sgb> SELECT count(*) FROM gps
//	     GROUP BY lat, lon DISTANCE-TO-ALL LINF WITHIN 3
//	     ON-OVERLAP ELIMINATE;
//
// Statements are terminated by ';'. Preload data with -demo (the
// paper's Figure 2 points), -tpch SF (TPC-H-like tables), or
// -checkin N (synthetic geo-social check-ins).
//
// Session settings tune the similarity executor:
//
//	sgb> SET algorithm = grid;      -- allpairs | bounds | rtree | grid
//	sgb> SET parallelism = 4;       -- DISTANCE-TO-ANY workers: 0 = GOMAXPROCS (auto), 1 = sequential
//	sgb> SET seed = 7;              -- JOIN-ANY arbitration seed
//	sgb> SET incremental = on;      -- maintain SGB groupings across INSERTs
//
// With -data DIR the database is persistent: mutations append to a
// write-ahead log in DIR, CHECKPOINT (and SET checkpoint_every)
// snapshot the state, and the next start recovers everything the log
// captured. Quitting (EOF, \q, or Ctrl-C) syncs the log before exit.
//
// Client/server mode: -serve ADDR serves the (optionally persistent,
// optionally preloaded) database over TCP instead of opening the REPL
// — each connection gets its own session, so per-connection SET state
// never leaks between clients — and -connect ADDR runs the REPL
// against such a server instead of an embedded database. Ctrl-C on the
// server drains in-flight statements before closing.
//
// See docs/sql.md for the full dialect and wire-protocol reference.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"time"

	sgb "github.com/sgb-db/sgb"
	"github.com/sgb-db/sgb/internal/checkin"
	"github.com/sgb-db/sgb/internal/tpch"
	"github.com/sgb-db/sgb/sgbclient"
	"github.com/sgb-db/sgb/sgbserver"
)

// runner is the statement executor the REPL drives: an embedded
// session or a remote connection, selected by -connect.
type runner interface {
	Run(sql string) (*sgb.Rows, int, error)
}

func main() {
	var (
		demo     = flag.Bool("demo", false, "load the Figure 2 demo table 'gps'")
		tpchSF   = flag.Float64("tpch", 0, "load TPC-H-like tables at this scale factor")
		checkins = flag.Int("checkin", 0, "load this many synthetic check-ins as 'checkins'")
		dataDir  = flag.String("data", "", "persist the database in this directory (WAL + checkpoints)")
		serve    = flag.String("serve", "", "serve the database over TCP on this address (host:port) instead of the REPL")
		connect  = flag.String("connect", "", "run the REPL against a -serve server at this address instead of an embedded database")
	)
	flag.Parse()

	if *connect != "" {
		if *demo || *tpchSF > 0 || *checkins > 0 || *dataDir != "" || *serve != "" {
			fatal(errors.New("-connect takes no data flags: the server owns the database"))
		}
		conn, err := sgbclient.Dial(*connect)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("connected to %s (one session; SET state is private to this connection)\n", *connect)
		repl(conn, func(code int) {
			conn.Close()
			os.Exit(code)
		}, nil)
		return
	}

	var db *sgb.DB
	if *dataDir != "" {
		var err error
		db, err = sgb.OpenDir(*dataDir)
		if err != nil {
			fatal(err)
		}
		printRecovery(db.Recovery(), *dataDir)
	} else {
		db = sgb.Open()
	}
	quit := func(code int) {
		// Quitting any way — EOF, \q, or Ctrl-C — syncs and closes the
		// WAL so the last acknowledged statement is on disk.
		if err := db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "sgbsql: close:", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}
	if *demo {
		if _, err := db.TableLen("gps"); err == nil {
			fmt.Println("demo table gps already recovered from -data; keeping it")
		} else {
			must(db.Exec("CREATE TABLE gps (id INT, lat FLOAT, lon FLOAT)"))
			must(db.Exec(`INSERT INTO gps VALUES
				(1, 2, 5), (2, 3, 6), (3, 7, 5), (4, 8, 6), (5, 5, 4)`))
			fmt.Println("loaded demo table gps (5 points of the paper's Figure 2)")
		}
	}
	if *tpchSF > 0 {
		ds := tpch.Generate(tpch.ScaleRows(*tpchSF))
		if err := ds.Install(db.Catalog()); err != nil {
			fatal(err)
		}
		fmt.Printf("loaded TPC-H-like tables at SF %g (%d lineitems)\n", *tpchSF, ds.Lineitem.Len())
	}
	if *checkins > 0 {
		t := checkin.Table("checkins", checkin.Brightkite(*checkins))
		if err := db.Catalog().Create(t); err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %d synthetic check-ins as table checkins\n", t.Len())
	}
	if tables := db.Tables(); len(tables) > 0 {
		fmt.Printf("tables: %s\n", strings.Join(tables, ", "))
	}

	if *serve != "" {
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			fatal(err)
		}
		srv := sgbserver.New(db)
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt)
		go func() {
			<-sigc
			fmt.Println("\ndraining connections...")
			srv.Shutdown()
		}()
		fmt.Printf("serving on %s — connect with: sgbsql -connect %s\n", ln.Addr(), ln.Addr())
		if err := srv.Serve(ln); !errors.Is(err, sgbserver.ErrClosed) {
			fmt.Fprintln(os.Stderr, "sgbsql: serve:", err)
			quit(1)
		}
		quit(0)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		fmt.Println()
		quit(0)
	}()
	fmt.Println(`type SQL ending with ';' — \q quits, \d lists tables`)
	fmt.Println(`session settings: SET algorithm = allpairs|bounds|rtree|grid; SET parallelism = N (DISTANCE-TO-ANY workers); SET seed = N; SET incremental = on|off`)
	if *dataDir != "" {
		fmt.Println(`durability: SET durability = always|interval|off; SET checkpoint_every = N; CHECKPOINT`)
	}
	repl(db.NewSession(), quit, db)
}

// repl reads ';'-terminated statements from stdin and executes them on
// r. db is non-nil only in embedded mode, where \d can list tables
// locally.
func repl(r runner, quit func(int), db *sgb.DB) {
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var stmt strings.Builder
	prompt := "sgb> "
	for {
		fmt.Print(prompt)
		if !scanner.Scan() {
			fmt.Println()
			quit(0)
		}
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		switch trimmed {
		case `\q`, "quit", "exit":
			quit(0)
		case `\d`:
			if db == nil {
				fmt.Println(`\d lists tables in embedded mode only`)
			} else {
				for _, t := range db.Tables() {
					n, _ := db.TableLen(t)
					fmt.Printf("  %s (%d rows)\n", t, n)
				}
			}
			continue
		}
		stmt.WriteString(line)
		stmt.WriteByte('\n')
		if !strings.HasSuffix(trimmed, ";") {
			prompt = "  -> "
			continue
		}
		prompt = "sgb> "
		sql := stmt.String()
		stmt.Reset()
		execute(r, sql)
	}
}

func execute(r runner, sql string) {
	start := time.Now()
	rows, n, err := r.Run(sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if rows == nil {
		fmt.Printf("ok (%d rows affected, %v)\n", n, time.Since(start).Round(time.Microsecond))
		return
	}
	fmt.Println(strings.Join(rows.Columns, " | "))
	for _, row := range rows.Data {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		fmt.Println(strings.Join(cells, " | "))
	}
	fmt.Printf("(%d rows, %v)\n", rows.Len(), time.Since(start).Round(time.Microsecond))
}

// printRecovery summarizes what OpenDir reconstructed from the data
// directory.
func printRecovery(ri sgb.RecoveryInfo, dir string) {
	if ri.SnapshotPath == "" && ri.RecordsReplayed == 0 {
		fmt.Printf("opened %s (fresh database)\n", dir)
		return
	}
	fmt.Printf("recovered %s:", dir)
	if ri.SnapshotPath != "" {
		fmt.Printf(" snapshot through seq %d", ri.SnapshotSeq)
		if ri.EvaluatorsRestored > 0 {
			fmt.Printf(" (%d incremental evaluators restored)", ri.EvaluatorsRestored)
		}
	}
	fmt.Printf(", %d WAL records (%d rows) replayed", ri.RecordsReplayed, ri.RowsReplayed)
	if ri.SnapshotsSkipped > 0 {
		fmt.Printf(", %d corrupt snapshots skipped", ri.SnapshotsSkipped)
	}
	fmt.Println()
}

func must(n int, err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sgbsql:", err)
	os.Exit(1)
}
