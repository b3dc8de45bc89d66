package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"redshift/internal/core"
	"redshift/internal/sql"
)

// tracer records one span tree per statement a traced run serves. Its
// sessions do exactly what core.Session.ExecuteContext does — sql.Parse,
// then Session.ExecuteStmtContext — with a clock read around each call.
// The engine's plan, queue and exec children come from Result.Stats, laid
// end to end after the engine span's start; the engine time they leave
// uncovered is the core lifecycle's own work (normalize, cache lookup and
// store, the stl_query record). Spans stay in memory until the run ends.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	sessions int
	stmts    map[stmtKey]*stmtTrace
}

// stmtKey identifies one statement: the connection (= session) index and
// its sequence number on that connection. Client and server spans of one
// statement share it.
type stmtKey struct{ conn, seq int }

// stmtTrace is the server side of one statement.
type stmtTrace struct {
	kind          string // statement type: select, insert, vacuum, analyze, set
	start         time.Time
	parse, engine time.Duration
	stats         core.ExecStats
	cached        bool
	err           bool
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), stmts: map[stmtKey]*stmtTrace{}}
}

func (t *tracer) open(sess *core.Session) *tracedSession {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.sessions
	t.sessions++
	return &tracedSession{t: t, sess: sess, id: id}
}

func (t *tracer) get(k stmtKey) *stmtTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stmts[k]
}

// tracedSession is a wire.SessionExecutor over a core.Session.
type tracedSession struct {
	t    *tracer
	sess *core.Session
	id   int
	seq  int
}

func (s *tracedSession) ExecuteContext(ctx context.Context, query string) (*core.Result, error) {
	s.seq++
	st := &stmtTrace{start: time.Now()}
	stmt, err := sql.Parse(query)
	st.parse = time.Since(st.start)
	var res *core.Result
	if err == nil {
		st.kind = stmtKind(stmt)
		res, err = s.sess.ExecuteStmtContext(ctx, stmt)
		st.engine = time.Since(st.start) - st.parse
	}
	if res != nil {
		st.stats, st.cached = res.Stats, res.Cached
	}
	st.err = err != nil
	s.t.mu.Lock()
	s.t.stmts[stmtKey{s.id, s.seq}] = st
	s.t.mu.Unlock()
	return res, err
}

func (s *tracedSession) Close() { s.sess.Close() }

func stmtKind(stmt sql.Statement) string {
	switch stmt.(type) {
	case *sql.Select:
		return "select"
	case *sql.Insert:
		return "insert"
	case *sql.Vacuum:
		return "vacuum"
	case *sql.Analyze:
		return "analyze"
	case *sql.Set:
		return "set"
	default:
		return fmt.Sprintf("%T", stmt)
	}
}

// executed reports whether the statement ran the query engine: a SELECT
// that the result cache did not answer.
func (st *stmtTrace) executed() bool { return st.kind == "select" && !st.cached && !st.err }

// coreSelf is the engine time not covered by plan, queue and exec.
func (st *stmtTrace) coreSelf() time.Duration {
	return st.engine - st.stats.PlanTime - st.stats.QueueWait - st.stats.ExecTime
}

// span is one written span. Times are microseconds since the run began.
type span struct {
	Conn   int     `json:"conn"`
	Seq    int     `json:"seq"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_us"`
	Dur    float64 `json:"dur_us"`
}

// writeSpans writes every measured statement's span tree as JSON lines:
// client round trip → server (wire handling) → parse, engine → plan,
// queue, exec.
func (t *tracer) writeSpans(path string, samples []sample) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	at := func(tm time.Time) float64 { return us(tm.Sub(t.epoch)) }
	for _, sm := range samples {
		emit := func(name, parent string, start float64, dur time.Duration) {
			if err == nil {
				err = enc.Encode(span{sm.conn, sm.seq, name, parent, start, us(dur)})
			}
		}
		emit("client", "", at(sm.sent), sm.rtt)
		st := t.get(stmtKey{sm.conn, sm.seq})
		if st == nil {
			continue
		}
		s0 := at(st.start)
		emit("server", "client", s0, st.parse+st.engine)
		emit("parse", "server", s0, st.parse)
		e0 := s0 + us(st.parse)
		emit("engine", "server", e0, st.engine)
		if st.executed() {
			// Stats carry durations only; the children are laid out in
			// lifecycle order from the engine span's start.
			p, q := st.stats.PlanTime, st.stats.QueueWait
			emit("plan", "engine", e0, p)
			emit("queue", "engine", e0+us(p), q)
			emit("exec", "engine", e0+us(p+q), st.stats.ExecTime)
		}
	}
	if err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
