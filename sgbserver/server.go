// Package sgbserver serves a sgb.DB over the framed wire protocol
// (internal/wire): a net.Listener accept loop, one goroutine and one
// sgb.Session per connection. Sessions give every connection its own
// SET state (algorithm, parallelism, incremental, ε defaults) while
// all connections share the database's catalog and its singleflight
// evaluator cache — N clients asking the same similarity question
// share one maintained evaluator.
//
// Shutdown is graceful: the listener closes first, idle connections
// are disconnected, and connections mid-statement finish their current
// request — the response frame is written — before their connection
// closes.
package sgbserver

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"github.com/sgb-db/sgb"
	"github.com/sgb-db/sgb/internal/wire"
)

// ErrClosed is returned by Serve after Shutdown closes the listener.
var ErrClosed = errors.New("sgbserver: server closed")

// Server serves one DB to many connections.
type Server struct {
	db *sgb.DB

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*serverConn]struct{}
	draining bool

	wg sync.WaitGroup // live connection handlers
}

// serverConn is one accepted connection's handler state. busy and
// closeAfter implement the drain handshake with Shutdown: a handler
// marks itself busy for exactly the span of one request, and Shutdown
// either closes an idle connection outright (unblocking its read) or
// flags a busy one to close itself after the in-flight response is
// written.
type serverConn struct {
	c          net.Conn
	mu         sync.Mutex
	busy       bool
	closeAfter bool
}

// New returns a server over db. The db stays owned by the caller:
// closing the server does not close the db, and the caller may keep
// using the db's own sessions alongside remote ones.
func New(db *sgb.DB) *Server {
	return &Server{db: db, conns: make(map[*serverConn]struct{})}
}

// Serve accepts connections on ln until Shutdown (returning ErrClosed)
// or a listener failure (returning its error). One call per server.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrClosed
			}
			return err
		}
		sc := &serverConn{c: c}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[sc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(sc)
	}
}

// ListenAndServe listens on a TCP address and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener address once Serve is running (nil
// before).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown stops the server gracefully: no new connections are
// accepted, idle connections close immediately, and connections with a
// statement in flight finish that statement — its response frame is
// written — before closing. Shutdown returns when every handler has
// exited. It is idempotent.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.draining = true
	if s.ln != nil {
		s.ln.Close()
	}
	for sc := range s.conns {
		sc.mu.Lock()
		if sc.busy {
			sc.closeAfter = true
		} else {
			sc.c.Close()
		}
		sc.mu.Unlock()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// handle runs one connection's request loop on its own session.
func (s *Server) handle(sc *serverConn) {
	defer s.wg.Done()
	defer func() {
		sc.c.Close()
		s.mu.Lock()
		delete(s.conns, sc)
		s.mu.Unlock()
	}()
	sess := s.db.NewSession()
	r := bufio.NewReader(sc.c)
	for {
		payload, err := wire.ReadFrame(r)
		if err != nil {
			// EOF: client hung up. Anything else: a torn or corrupt
			// frame — the stream cannot be resynchronized, so drop the
			// connection rather than guess at frame boundaries.
			return
		}
		sc.mu.Lock()
		if sc.closeAfter {
			sc.mu.Unlock()
			return
		}
		sc.busy = true
		sc.mu.Unlock()

		resp := runStatement(sess, payload)
		werr := wire.WriteFrame(sc.c, resp)
		if errors.Is(werr, wire.ErrFrameTooLarge) {
			// Nothing was written, so the stream is intact: the
			// statement ran but its answer does not fit one frame.
			// Say so instead of hanging up on the client.
			werr = wire.WriteFrame(sc.c, wire.EncodeErr(fmt.Errorf("sgbserver: result not sent: %w", werr)))
		}

		sc.mu.Lock()
		sc.busy = false
		stop := sc.closeAfter
		sc.mu.Unlock()
		if werr != nil || stop {
			return
		}
	}
}

// runStatement executes one decoded request on the connection's
// session and encodes the answer. Statement failures travel back as
// error frames; only transport failures drop a connection.
func runStatement(sess *sgb.Session, payload []byte) []byte {
	sql, err := wire.DecodeQuery(payload)
	if err != nil {
		return wire.EncodeErr(err)
	}
	rows, n, err := sess.Run(sql)
	if err != nil {
		return wire.EncodeErr(err)
	}
	if rows != nil {
		return wire.EncodeRows(rows.Columns, rows.Data)
	}
	return wire.EncodeCount(n)
}
