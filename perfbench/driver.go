package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"redshift/internal/wire"
)

// sample is one measured statement as the client saw it.
type sample struct {
	conn, seq int
	class     string
	sent      time.Time
	rtt       time.Duration // send → response
	lat       time.Duration // rtt on a closed loop; due time → response on the open loop
	late      time.Duration // open loop: send − due time
	execMs    float64       // Response.ExecMillis
	rows      int
	failed    bool
}

// outcome is a measured window.
type outcome struct {
	samples []sample
	elapsed time.Duration
	wrong   []string // wrong answers, each described
	backlog time.Duration
}

func (o *outcome) failed() int {
	n := 0
	for _, s := range o.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// query is one statement a client sends, with the check its answer must
// pass. check is called after the response's time is taken.
type query struct {
	sql   string
	class string
	check func(*wire.Response) error
}

// stream yields one connection's statements.
type stream interface {
	next() query
	// warm returns the next warm-up statement, or false once the stream
	// is warm.
	warm() (query, bool)
}

// closedLoop drives one stream per connection, each sending its next
// statement when the previous one has answered. Every stream warms up
// before any starts the measured window of length dur.
func closedLoop(e *env, streams []stream, dur time.Duration) (*outcome, *window, error) {
	cs, err := dialAll(e.addr, len(streams), func(int) string { return "SET result_cache TO on" })
	if err != nil {
		return nil, nil, err
	}
	defer closeAll(cs)

	out := &outcome{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, len(cs))
	// Every connection finishes warming before any starts measuring.
	var warmed sync.WaitGroup
	warmed.Add(len(cs))
	start := make(chan time.Time)
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *conn, st stream) {
			defer wg.Done()
			for {
				q, ok := st.warm()
				if !ok {
					break
				}
				resp, err := c.query(q.sql)
				if err == nil && resp.Error == "" && q.check != nil {
					err = q.check(resp)
				}
				if err == nil && resp.Error != "" {
					err = fmt.Errorf("%s: %s", q.sql, resp.Error)
				}
				if err != nil {
					errs[i] = fmt.Errorf("warm-up: %w", err)
					break
				}
			}
			warmed.Done()
			t0, ok := <-start
			if !ok || errs[i] != nil {
				return
			}
			deadline := t0.Add(dur)
			var local []sample
			var wrong []string
			for {
				q := st.next()
				sent := time.Now()
				resp, err := c.query(q.sql)
				rtt := time.Since(sent)
				if err != nil {
					errs[i] = err
					break
				}
				s := sample{conn: c.id, seq: c.seq, class: q.class, sent: sent, rtt: rtt, lat: rtt,
					execMs: resp.ExecMillis, rows: len(resp.Rows), failed: resp.Error != ""}
				if !s.failed && q.check != nil {
					if err := q.check(resp); err != nil {
						wrong = append(wrong, fmt.Sprintf("%s: %v", q.sql, err))
					}
				}
				local = append(local, s)
				if !time.Now().Before(deadline) {
					break
				}
			}
			mu.Lock()
			out.samples = append(out.samples, local...)
			out.wrong = append(out.wrong, wrong...)
			mu.Unlock()
		}(i, c, streams[i])
	}
	warmed.Wait()
	win := &window{e: e}
	err = errors.Join(errs...)
	if err == nil {
		settle()
		err = win.begin()
	}
	if err != nil {
		close(start)
		wg.Wait()
		return nil, nil, err
	}
	t0 := time.Now()
	for range cs {
		start <- t0
	}
	wg.Wait()
	out.elapsed = time.Since(t0)
	if err := errors.Join(append(errs, win.end())...); err != nil {
		return nil, nil, err
	}
	return out, win, nil
}
