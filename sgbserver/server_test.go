package sgbserver

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sgb-db/sgb"
	"github.com/sgb-db/sgb/internal/wire"
	"github.com/sgb-db/sgb/sgbclient"
)

// startServer serves an in-memory DB on a loopback listener and
// returns the dial address plus a shutdown func.
func startServer(t *testing.T, db *sgb.DB) (string, *Server, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(db)
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	return ln.Addr().String(), s, func() {
		s.Shutdown()
		if err := <-done; !errors.Is(err, ErrClosed) {
			t.Errorf("Serve returned %v, want ErrClosed", err)
		}
	}
}

func dial(t *testing.T, addr string) *sgbclient.Conn {
	t.Helper()
	c, err := sgbclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestServerEndToEnd drives DDL, DML, similarity queries, and
// statement errors over the wire and checks the answers match the
// embedded engine exactly.
func TestServerEndToEnd(t *testing.T) {
	db := sgb.Open()
	addr, _, stop := startServer(t, db)
	defer stop()
	c := dial(t, addr)

	if n, err := c.Exec("CREATE TABLE pts (id INT, x FLOAT, y FLOAT)"); err != nil || n != 0 {
		t.Fatalf("CREATE: n=%d err=%v", n, err)
	}
	if n, err := c.Exec("INSERT INTO pts VALUES (1, 0, 0), (2, 0.3, 0), (3, 5, 5)"); err != nil || n != 3 {
		t.Fatalf("INSERT: n=%d err=%v", n, err)
	}
	got, err := c.Query("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5 ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Query("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5 ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Data, want.Data) || !reflect.DeepEqual(got.Columns, want.Columns) {
		t.Fatalf("remote answer diverges from embedded:\n got %v %v\nwant %v %v",
			got.Columns, got.Data, want.Columns, want.Data)
	}
	if n, err := c.Exec("DELETE FROM pts WHERE id = 3"); err != nil || n != 1 {
		t.Fatalf("DELETE: n=%d err=%v", n, err)
	}

	// A statement error comes back typed and leaves the connection
	// usable.
	var remote sgbclient.RemoteError
	if _, err := c.Query("SELECT * FROM nonesuch"); !errors.As(err, &remote) {
		t.Fatalf("querying a missing table: got %v, want RemoteError", err)
	}
	if !strings.Contains(remote.Error(), "nonesuch") {
		t.Fatalf("remote error lost its message: %q", remote)
	}
	if n, err := c.Exec("INSERT INTO pts VALUES (4, 9, 9)"); err != nil || n != 1 {
		t.Fatalf("statement after error: n=%d err=%v", n, err)
	}
}

// TestServerSessionSetIsolation is the regression test for
// session-scoped SET: two connections SET different parallelism and
// seeds, and neither clobbers the other (or the embedded default
// session).
func TestServerSessionSetIsolation(t *testing.T) {
	db := sgb.Open()
	addr, _, stop := startServer(t, db)
	defer stop()
	c1, c2 := dial(t, addr), dial(t, addr)

	if _, err := c1.Exec("SET parallelism = 3"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Exec("SET parallelism = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("SET seed = 7"); err != nil {
		t.Fatal(err)
	}
	// A bad SET on one connection must not disturb the other.
	if _, err := c2.Exec("SET algorithm = bogus"); err == nil {
		t.Fatal("bogus algorithm accepted")
	}

	// Each connection's settings are observable through behavior: SET
	// applies per session, so the embedded default session still holds
	// the zero-value defaults.
	if opt := db.SessionOptions(); opt.Parallelism != 0 || opt.Seed != 0 {
		t.Fatalf("remote SET leaked into the default session: %+v", opt)
	}

	// Both connections still answer queries under their own settings.
	for _, c := range []*sgbclient.Conn{c1, c2} {
		if _, err := c.Exec("CREATE TABLE t1 (x FLOAT)"); err != nil &&
			!strings.Contains(err.Error(), "already exists") {
			t.Fatal(err)
		}
	}
	if _, err := c1.Exec("INSERT INTO t1 VALUES (1), (1.1), (9)"); err != nil {
		t.Fatal(err)
	}
	r1, err := c1.Query("SELECT count(*) FROM t1 GROUP BY x DISTANCE-TO-ALL L2 WITHIN 0.5 ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c2.Query("SELECT count(*) FROM t1 GROUP BY x DISTANCE-TO-ALL L2 WITHIN 0.5 ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Data, r2.Data) {
		t.Fatalf("parallelism setting changed the answer: %v vs %v", r1.Data, r2.Data)
	}
}

// TestServerGracefulShutdown checks that Shutdown lets an in-flight
// statement finish — its response arrives intact — while idle
// connections close promptly.
func TestServerGracefulShutdown(t *testing.T) {
	db := sgb.Open()
	if _, err := db.Exec("CREATE TABLE big (x FLOAT, y FLOAT)"); err != nil {
		t.Fatal(err)
	}
	var ins strings.Builder
	ins.WriteString("INSERT INTO big VALUES ")
	for i := 0; i < 4000; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		ins.WriteString("(")
		ins.WriteString(itoa(i % 10))
		ins.WriteString(".5, 0)")
	}
	if _, err := db.Exec(ins.String()); err != nil {
		t.Fatal(err)
	}

	addr, s, _ := startServer(t, db)
	busy := dial(t, addr)
	idle := dial(t, addr)

	type answer struct {
		rows *sgb.Rows
		err  error
	}
	got := make(chan answer, 1)
	go func() {
		r, err := busy.Query("SELECT count(*) FROM big GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 0.25 ORDER BY 1")
		got <- answer{r, err}
	}()
	// Let the query reach the server before draining. The handshake is
	// timing-dependent only in which path it exercises (busy vs idle
	// drain), not in whether it is correct.
	time.Sleep(20 * time.Millisecond)
	s.Shutdown()

	a := <-got
	if a.err != nil {
		t.Fatalf("in-flight query dropped by graceful shutdown: %v", a.err)
	}
	if a.rows.Len() == 0 {
		t.Fatal("in-flight query returned no rows")
	}
	// The drained connections are closed: the next request fails.
	if _, err := idle.Query("SELECT count(*) FROM big GROUP BY x DISTANCE-TO-ALL L2 WITHIN 0.25"); err == nil {
		t.Fatal("idle connection survived shutdown")
	}
	if _, err := sgbclient.Dial(addr); err == nil {
		t.Fatal("server still accepting after shutdown")
	}
	// Shutdown is idempotent.
	s.Shutdown()
}

// TestServerConcurrentClients hammers one server with parallel mixed
// traffic as a correctness smoke test (the -race CI job runs it with
// the detector on; the heavier env-gated stress lives in
// db_concurrency_test.go and the serve benchmarks).
func TestServerConcurrentClients(t *testing.T) {
	db := sgb.Open()
	if _, err := db.Exec("CREATE TABLE pts (id INT, x FLOAT, y FLOAT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("SET incremental = on"); err != nil {
		t.Fatal(err)
	}
	addr, _, stop := startServer(t, db)
	defer stop()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := sgbclient.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if _, err := c.Exec("SET incremental = on"); err != nil {
				errs <- err
				return
			}
			for j := 0; j < 10; j++ {
				v := id*10 + j
				if _, err := c.Exec(
					"INSERT INTO pts VALUES (" + itoa(v) + ", " + itoa(v%7) + ".25, " + itoa(v%5) + ".5)"); err != nil {
					errs <- err
					return
				}
				if _, err := c.Query(
					"SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1 ORDER BY 1"); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	n, err := db.TableLen("pts")
	if err != nil || n != clients*10 {
		t.Fatalf("table holds %d rows (%v), want %d", n, err, clients*10)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestServerOversizedResult: an answer that does not fit one frame
// comes back as a statement error naming the size and the limit, and
// the session stays usable; hanging up instead would reach the client
// as a bare EOF with no reason.
func TestServerOversizedResult(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 70 MiB result")
	}
	db := sgb.Open()
	addr, _, stop := startServer(t, db)
	defer stop()
	c := dial(t, addr)

	if _, err := c.Exec("CREATE TABLE blobs (id INT, body TEXT)"); err != nil {
		t.Fatal(err)
	}
	body := strings.Repeat("x", 1<<20)
	for i := 0; i < 70; i++ {
		if _, err := c.Exec(fmt.Sprintf("INSERT INTO blobs VALUES (%d, '%s')", i, body)); err != nil {
			t.Fatalf("INSERT %d: %v", i, err)
		}
	}
	_, err := c.Query("SELECT id, body FROM blobs")
	var remote sgbclient.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(err.Error(), "exceeds limit") ||
		!strings.Contains(err.Error(), fmt.Sprint(wire.MaxFrame)) {
		t.Fatalf("70 MiB SELECT: got %.200v, want a RemoteError naming the %d-byte limit", err, wire.MaxFrame)
	}
	got, err := c.Query("SELECT count(*) FROM blobs")
	if err != nil || got.Len() != 1 || got.Data[0][0].I != 70 {
		t.Fatalf("statement after the refused one: %v, %v", got, err)
	}
}
