package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"redshift"
	"redshift/internal/core"
	"redshift/internal/wire"
)

// env is one fresh warehouse served on loopback exactly as
// cmd/redshift-server serves it: a wire.SessionServer opening one session
// per connection.
type env struct {
	wh   *redshift.Warehouse
	srv  *wire.Server
	addr string
	// tr is the span recorder; nil on an untraced run, where connections
	// get the warehouse's own wire sessions.
	tr    *tracer
	load  loadStats
	setup time.Duration
}

// loadStats times the loading phases of set-up.
type loadStats struct {
	copyTime    time.Duration
	copyRows    int64
	analyzeTime time.Duration
	insertTime  time.Duration
	// untimed is time set-up spends generating input, left out of setup.
	untimed time.Duration
}

// traffic is one named workload: its warehouse options, data and statements.
type traffic interface {
	options() redshift.Options
	// load creates and fills the tables of a fresh warehouse.
	load(wh *redshift.Warehouse, ls *loadStats) error
	// run warms the warehouse up, then drives the measured window.
	run(e *env, dur time.Duration) (*outcome, *window, error)
}

// launch brings up a fresh warehouse, loads it and starts serving it. The
// returned env's setup field is the whole set-up time.
func launch(w traffic, traced bool) (*env, error) {
	opts := w.options()
	// Queries spill only under memory governance, which no workload turns
	// on; should one spill, its scratch files stay in the build directory.
	spill, err := filepath.Abs(filepath.Join(buildDir, "spill"))
	if err != nil {
		return nil, err
	}
	opts.SpillDir = spill
	start := time.Now()
	wh, err := redshift.Launch(opts)
	if err != nil {
		return nil, fmt.Errorf("launch: %w", err)
	}
	e := &env{wh: wh}
	if traced {
		e.tr = newTracer()
		e.srv = wire.NewSessionServer(func() wire.SessionExecutor { return e.tr.open(wh.NewSession()) })
	} else {
		e.srv = wire.NewSessionServer(func() wire.SessionExecutor { return wh.NewWireSession() })
	}
	if e.addr, err = e.srv.Listen("127.0.0.1:0"); err != nil {
		wh.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	if err := w.load(wh, &e.load); err != nil {
		e.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	e.setup = time.Since(start) - e.load.untimed
	return e, nil
}

func (e *env) close() {
	e.srv.Close()
	e.wh.Close()
}

// exec runs probe SQL in-process, outside the wire server.
func (e *env) exec(q string) (*core.Result, error) {
	res, err := e.wh.Execute(q)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q, err)
	}
	return res, nil
}

// timedExec runs q and adds its duration to *d.
func timedExec(wh *redshift.Warehouse, q string, d *time.Duration) (*core.Result, error) {
	t := time.Now()
	res, err := wh.Execute(q)
	*d += time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q, err)
	}
	return res, nil
}

// settle drops garbage left by earlier set-ups so the measured window
// starts from the live heap of the warehouse under test.
func settle() { runtime.GC() }

// conn is one benchmark client connection. Its session on the server
// side has the same index: connections are dialled one at a time and each
// finishes a round trip before the next is dialled, and the server opens
// sessions as it serves connections.
type conn struct {
	c   *wire.Client
	id  int
	seq int // statements sent, the handshake included
}

func dialAll(addr string, n int, handshake func(id int) string) ([]*conn, error) {
	var cs []*conn
	for id := 0; id < n; id++ {
		c, err := wire.Dial(addr)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cn := &conn{c: c, id: id}
		cs = append(cs, cn)
		resp, err := cn.query(handshake(id))
		if err == nil && resp.Error != "" {
			err = fmt.Errorf("handshake: %s", resp.Error)
		}
		if err != nil {
			closeAll(cs)
			return nil, err
		}
	}
	return cs, nil
}

func closeAll(cs []*conn) {
	for _, c := range cs {
		c.c.Close()
	}
}

func (c *conn) query(q string) (*wire.Response, error) {
	c.seq++
	return c.c.Query(q)
}
