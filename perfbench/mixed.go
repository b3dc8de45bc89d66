package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"redshift"
	"redshift/internal/workload"
)

// mixed replays a synthesized two-tenant trace open-loop at trace pace: a
// dashboard tenant's repeat-heavy panel queries beside an ETL tenant's
// INSERT / transform / VACUUM / ANALYZE waves, each tenant on its own
// sessions and WLM queue. It is the only workload that exercises WLM
// routing and queueing and the write path.
type mixed struct {
	spec   workload.Workload
	stream *workload.Stream
}

const (
	mixScale = 24
	// mixQueues gives every queue one slot; dashboard statements the
	// planner estimates at no more than 20000 rows take the express lane.
	mixQueues = "express=1,short=20000;dash=1;etl=1;default=1"
	// etlInsertRows is how many rows each synthesized INSERT adds to wl_stage.
	etlInsertRows = 20
)

func newMixed(seed int64, dur time.Duration) *mixed {
	spec := workload.Workload{
		Tenants: []workload.TenantSpec{
			// Unbatched arrivals: bursts on one session would make a
			// statement's latency mostly its place in the burst, which
			// swings from run to run on a two-core host.
			{Name: "dash", Archetype: workload.Dashboard, Queue: "dash", Rate: 150, Repeat: 0.7},
			// Two sessions, so that the one-slot etl queue really queues a
			// transform behind another; frequent unbatched arrivals spread
			// the interference with the dashboard evenly over the run.
			{Name: "etl", Archetype: workload.ETL, Queue: "etl", Rate: 12, Sessions: 2},
		},
		Duration: dur,
		Seed:     seed,
		Scale:    mixScale,
	}
	return &mixed{spec: spec, stream: workload.Synthesize(spec)}
}

func (m *mixed) options() redshift.Options {
	queues, err := redshift.ParseWLMQueues(mixQueues)
	if err != nil {
		panic(err) // a constant spec
	}
	return redshift.Options{WLMQueues: queues}
}

func (m *mixed) load(wh *redshift.Warehouse, ls *loadStats) error {
	for _, q := range m.stream.Setup {
		var err error
		switch {
		case strings.HasPrefix(q, "INSERT"):
			_, err = timedExec(wh, q, &ls.insertTime)
		case strings.HasPrefix(q, "ANALYZE"):
			_, err = timedExec(wh, q, &ls.analyzeTime)
		default:
			_, err = wh.Execute(q)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
	}
	return nil
}

// Warm-up statements draw parameters outside the synthesizer's ranges
// (e_type < 8, e_user < 50, l_partkey < 100000), so none of them can
// answer a measured statement from the result cache.
var mixWarm = map[string][]string{
	"dash": {
		`SELECT COUNT(*) FROM wl_events WHERE e_type = 9`,
		`SELECT e_type, COUNT(*) FROM wl_events WHERE e_user = 77 GROUP BY e_type`,
		`SELECT MAX(e_val) FROM wl_events WHERE e_type = 11`,
	},
	"etl": {
		`SELECT o_region, SUM(l_price * l_qty), COUNT(*) FROM wl_orders JOIN wl_lineitems ON o_id = l_orderkey WHERE l_partkey <> 100001 GROUP BY o_region`,
	},
}

func (m *mixed) run(e *env, dur time.Duration) (*outcome, *window, error) {
	// One connection per tenant session, dialled in tenant order.
	type slot struct {
		tenant int
		conn   *conn
	}
	var groups []string
	for _, t := range m.spec.Tenants {
		for i := 0; i < max(t.Sessions, 1); i++ {
			groups = append(groups, t.Queue)
		}
	}
	cs, err := dialAll(e.addr, len(groups), func(i int) string { return "SET query_group TO " + groups[i] })
	if err != nil {
		return nil, nil, err
	}
	defer closeAll(cs)
	var slots []slot
	for ti, t := range m.spec.Tenants {
		for i := 0; i < max(t.Sessions, 1); i++ {
			slots = append(slots, slot{ti, cs[len(slots)]})
		}
		for _, q := range mixWarm[t.Name] {
			resp, err := slots[len(slots)-1].conn.query(q)
			if err == nil && resp.Error != "" {
				err = errors.New(resp.Error)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("warm-up %s: %w", q, err)
			}
		}
	}
	settle()
	win := &window{e: e}
	if err := win.begin(); err != nil {
		return nil, nil, err
	}

	// Each tenant's events form one queue its sessions take from in order:
	// a session sends the next event when it is free and the event is due.
	queues := make([][]workload.Event, len(m.spec.Tenants))
	for _, ev := range m.stream.Events {
		for ti, t := range m.spec.Tenants {
			if ev.Tenant == t.Name {
				queues[ti] = append(queues[ti], ev)
			}
		}
	}
	taken := make([]atomic.Int64, len(m.spec.Tenants))
	out := &outcome{}
	answers := make([]map[string][][]string, len(slots))
	inserts := make([]int, len(slots))
	lastDone := make([]time.Time, len(slots))
	errs := make([]error, len(slots))
	var wg sync.WaitGroup
	var mu sync.Mutex
	t0 := time.Now()
	for si, sl := range slots {
		answers[si] = map[string][][]string{}
		wg.Add(1)
		go func(si int, c *conn, events []workload.Event, taken *atomic.Int64) {
			defer wg.Done()
			var local []sample
			var wrong []string
			for {
				k := int(taken.Add(1)) - 1
				if k >= len(events) {
					break
				}
				ev := events[k]
				due := t0.Add(ev.Offset)
				// ready is when this statement could have been sent: its
				// due time, or later if the session was still busy.
				ready := time.Now()
				if d := ready.Sub(due); d < 0 {
					time.Sleep(-d)
					ready = due
				}
				sent := time.Now()
				resp, err := c.query(ev.SQL)
				done := time.Now()
				if err != nil {
					errs[si] = err
					break
				}
				lastDone[si] = done
				class := "short"
				if ev.Kind != workload.KindShort {
					class = "etl"
				}
				// Latency runs from the due time, so it includes waiting
				// for a busy session, but not the sleep's own overshoot
				// (sent - ready), which on a virtual machine's coarse timer
				// reaches milliseconds and belongs to the generator; that
				// shows in driver.late_ms_p99 instead.
				s := sample{conn: c.id, seq: c.seq, class: class, sent: sent, rtt: done.Sub(sent), lat: done.Sub(due) - sent.Sub(ready),
					late: sent.Sub(due), execMs: resp.ExecMillis, rows: len(resp.Rows), failed: resp.Error != ""}
				local = append(local, s)
				if s.failed {
					continue
				}
				switch {
				case ev.Kind == workload.KindWrite:
					inserts[si]++
				case strings.HasPrefix(ev.SQL, "SELECT"):
					// The first answer to each statement is re-checked
					// after the window; later ones must repeat it.
					got := sortedRows(resp.Rows)
					if prev, ok := answers[si][ev.SQL]; !ok {
						answers[si][ev.SQL] = got
					} else if err := sameAnswer(got, prev); err != nil {
						wrong = append(wrong, fmt.Sprintf("%s: answer changed: %v", ev.SQL, err))
					}
				}
			}
			mu.Lock()
			out.samples = append(out.samples, local...)
			out.wrong = append(out.wrong, wrong...)
			mu.Unlock()
		}(si, sl.conn, queues[sl.tenant], &taken[sl.tenant])
	}
	wg.Wait()
	end := t0
	for _, d := range lastDone {
		if d.After(end) {
			end = d
		}
	}
	out.elapsed = end.Sub(t0)
	if n := len(m.stream.Events); n > 0 {
		out.backlog = end.Sub(t0.Add(m.stream.Events[n-1].Offset))
	}
	if err := errors.Join(append(errs, win.end())...); err != nil {
		return nil, nil, err
	}
	wrong, err := m.verify(e, answers, inserts)
	if err != nil {
		return nil, nil, err
	}
	out.wrong = append(out.wrong, wrong...)
	return out, win, nil
}

// verify re-executes every distinct SELECT the tenants saw on a quiet
// session with the result cache off — the tables they read are never
// written during the run — and checks that wl_stage holds exactly the
// rows of the acknowledged INSERTs.
func (m *mixed) verify(e *env, answers []map[string][][]string, inserts []int) ([]string, error) {
	sess := e.wh.NewSession()
	defer sess.Close()
	if _, err := sess.Execute("SET result_cache TO off"); err != nil {
		return nil, err
	}
	var wrong []string
	for _, byStmt := range answers {
		for q, got := range byStmt {
			res, err := sess.Execute(q)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q, err)
			}
			rows := make([][]string, len(res.Rows))
			for r, row := range res.Rows {
				for _, v := range row {
					rows[r] = append(rows[r], v.String())
				}
			}
			if err := sameAnswer(got, sortedRows(rows)); err != nil {
				wrong = append(wrong, fmt.Sprintf("%s: %v", q, err))
			}
		}
	}
	acked := 0
	for _, n := range inserts {
		acked += n
	}
	res, err := sess.Execute(`SELECT COUNT(*) FROM wl_stage`)
	if err != nil {
		return nil, err
	}
	if got, want := res.Rows[0][0].I, int64(etlInsertRows*acked); got != want {
		wrong = append(wrong, fmt.Sprintf("wl_stage holds %d rows, want %d for %d acknowledged INSERTs", got, want, acked))
	}
	return wrong, nil
}

// sortedRows orders rows by their text: the synthesized statements have
// no ORDER BY, so row order is not part of the answer.
func sortedRows(rows [][]string) [][]string {
	out := append([][]string(nil), rows...)
	sort.Slice(out, func(i, j int) bool { return strings.Join(out[i], "|") < strings.Join(out[j], "|") })
	return out
}

// sameAnswer compares two sorted answers. Integers and text must match
// exactly; a DOUBLE sum may differ in its last bits, because SQL leaves
// the order in which a float aggregate adds its inputs unspecified.
func sameAnswer(got, want [][]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: got %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j, w := range want[i] {
			g := got[i][j]
			if g == w {
				continue
			}
			gf, gerr := strconv.ParseFloat(g, 64)
			wf, werr := strconv.ParseFloat(w, 64)
			if gerr != nil || werr != nil || !strings.ContainsAny(w, ".e") || math.Abs(gf-wf) > 1e-9*math.Abs(wf) {
				return fmt.Errorf("row %d column %d: got %q, want %q", i, j, g, w)
			}
		}
	}
	return nil
}
