package core

import (
	"sync"
	"testing"
	"time"

	"redshift/internal/cluster"
	"redshift/internal/exec"
	"redshift/internal/s3sim"
)

// The concurrency tests send identical statements and count admissions, so
// they disable the result cache: it is consulted ahead of admission, and a
// copy that finishes first would serve the rest without admitting them.

func TestWLMLimitsConcurrency(t *testing.T) {
	db, err := Open(Config{
		Cluster:          cluster.Config{Nodes: 1, SlicesPerNode: 2, BlockCap: 64},
		DataStore:        s3sim.New(),
		QuerySlots:       2,
		ResultCacheBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	seedSales(t, db)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := db.Execute(`SELECT product_id, SUM(qty) FROM sales GROUP BY product_id`); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	stats := db.WLMStats()
	if stats.PeakActive > 2 {
		t.Errorf("peak concurrent queries = %d, slots = 2", stats.PeakActive)
	}
	if stats.TotalQueries < 16 {
		t.Errorf("total queries = %d", stats.TotalQueries)
	}
	if stats.Active != 0 || stats.Queued != 0 {
		t.Errorf("counters not drained: %+v", stats)
	}
}

func TestWLMQueueWaitReported(t *testing.T) {
	db, err := Open(Config{
		Cluster:    cluster.Config{Nodes: 1, SlicesPerNode: 1, BlockCap: 64},
		DataStore:  s3sim.New(),
		QuerySlots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	seedSales(t, db)
	// Occupy the only slot so the query below must queue. (Since planning
	// moved ahead of admission, a query racing other fast queries may never
	// actually wait — holding the slot makes the contention deterministic.)
	db.wlm.Acquire()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := db.Execute(`SELECT COUNT(*) FROM sales WHERE qty > 1`)
		done <- outcome{res, err}
	}()
	time.Sleep(30 * time.Millisecond)
	db.wlm.Release()
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Stats.QueueWait <= 0 {
		t.Errorf("query queued behind a held slot reported QueueWait = %v", out.res.Stats.QueueWait)
	}
	if out.res.Stats.Queue != DefaultQueueName {
		t.Errorf("queue = %q, want %q", out.res.Stats.Queue, DefaultQueueName)
	}
}

func TestWLMUnlimitedByDefault(t *testing.T) {
	db, err := Open(Config{
		Cluster:          cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 64},
		DataStore:        s3sim.New(),
		ResultCacheBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	seedSales(t, db)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			db.Execute(`SELECT COUNT(*) FROM sales`)
		}()
	}
	wg.Wait()
	stats := db.WLMStats()
	if stats.TotalQueries != 8 {
		t.Errorf("total = %d", stats.TotalQueries)
	}
	if stats.TotalWaitTime != 0 {
		t.Errorf("unlimited WLM accumulated wait %v", stats.TotalWaitTime)
	}
}

// TestWLMResultCacheHitSkipsAdmission: a statement served from the result
// cache never reaches WLM admission.
func TestWLMResultCacheHitSkipsAdmission(t *testing.T) {
	db := openDB(t, exec.Compiled)
	seedSales(t, db)
	const q = `SELECT COUNT(*) FROM sales`
	if res := mustExec(t, db, q); res.Cached {
		t.Fatal("first execution served from the result cache")
	}
	before := db.WLMStats().TotalQueries
	if res := mustExec(t, db, q); !res.Cached {
		t.Fatal("repeat was not served from the result cache")
	}
	if after := db.WLMStats().TotalQueries; after != before {
		t.Errorf("result-cache hit was admitted: total queries %d -> %d", before, after)
	}
}

func TestWLMAdminStatementsBypassQueue(t *testing.T) {
	db, err := Open(Config{
		Cluster:    cluster.Config{Nodes: 1, SlicesPerNode: 1, BlockCap: 64},
		DataStore:  s3sim.New(),
		QuerySlots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the only slot with a held acquire, then run DDL + INSERT:
	// they must not block behind the queue.
	db.wlm.Acquire()
	defer db.wlm.Release()
	done := make(chan struct{})
	go func() {
		defer close(done)
		mustExec(t, db, `CREATE TABLE free (a BIGINT)`)
		mustExec(t, db, `INSERT INTO free VALUES (1)`)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("admin statements blocked behind the WLM queue")
	}
}
