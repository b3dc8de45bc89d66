package telemetry

import (
	"sync"
	"time"
)

// QueryRecord is one completed query's accounting — the row shape behind
// the stl_query system table and the input a trace-replay harness needs.
type QueryRecord struct {
	// ID is the query's sequence number, assigned at completion.
	ID int64
	// SQL is the statement text (reconstructed from the AST).
	SQL        string
	Start, End time.Time
	// Queue is the WLM queue that admitted (or evicted) the query; "" for
	// cache hits and statements that bypass WLM.
	Queue     string
	QueueWait time.Duration
	PlanTime  time.Duration
	ExecTime  time.Duration
	// Rows is the result row count.
	Rows          int64
	BlocksRead    int64
	BlocksSkipped int64
	RowsScanned   int64
	NetBytes      int64
	// Error is non-empty for aborted statements.
	Error string
	// State is the query's terminal state: "success", "error",
	// "cancelled" (user CANCEL / context cancellation) or "timeout"
	// (statement_timeout). Empty means success for old producers.
	State string
	// MemPeak is the high-water mark of execution memory tracked against
	// the query's grant; SpillBytes is what its operators wrote to scratch
	// files (0 when the query stayed in memory).
	MemPeak    int64
	SpillBytes int64
	// Trace is the query's span tree (may be nil for aborted plans).
	Trace *Span
}

// QueryLog is a fixed-capacity ring buffer of completed queries: the
// in-memory stand-in for Redshift's STL system log tables, bounded so a
// long-lived endpoint never grows without limit.
type QueryLog struct {
	mu     sync.Mutex
	buf    []QueryRecord
	next   int // ring write position
	filled bool
	lastID int64
}

// NewQueryLog returns a log holding the most recent capacity queries
// (minimum 1).
func NewQueryLog(capacity int) *QueryLog {
	if capacity < 1 {
		capacity = 1
	}
	return &QueryLog{buf: make([]QueryRecord, capacity)}
}

// Append records a completed query and returns its ID. Records arriving
// with a pre-assigned ID (queries registered for cancellation before they
// ran) keep it; otherwise the log assigns the next sequence number.
func (l *QueryLog) Append(r QueryRecord) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.ID == 0 {
		l.lastID++
		r.ID = l.lastID
	} else if r.ID > l.lastID {
		l.lastID = r.ID
	}
	l.buf[l.next] = r
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
		l.filled = true
	}
	return r.ID
}

// Records returns the retained queries, oldest first.
func (l *QueryLog) Records() []QueryRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.filled {
		return append([]QueryRecord(nil), l.buf[:l.next]...)
	}
	out := make([]QueryRecord, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out
}

// Len reports how many records are retained.
func (l *QueryLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.filled {
		return len(l.buf)
	}
	return l.next
}

// Total reports how many queries have ever been appended.
func (l *QueryLog) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastID
}
