package server

import (
	"container/list"
	"context"
	"sync"

	"privanalyzer/internal/core"
	"privanalyzer/internal/programs"
	"privanalyzer/internal/rosa"
)

// entryLRU keeps one entry per modeled program — and one per ad-hoc query
// flavour — hot. Each entry carries a rosa.Checker whose transition caches
// amortize graph expansion across requests (the serving-path counterpart of
// core.AnalyzeContext sharing one checker across a single analysis's query
// grid); a program's entry also memoizes its core.Measurement, so warm
// analyses stop re-running AutoPriv and ChronoPriv. Eviction drops the
// coldest entry's caches and measurement; correctness never depends on a
// hit (a fresh entry recomputes identical verdicts and counts, pinned by the
// determinism tests).
type entryLRU struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

// entry is one LRU slot. Program entries (keyed by program name) measure on
// first use; ad-hoc entries (reserved keys no program name can collide
// with) only ever use the checker.
type entry struct {
	key     string
	checker *rosa.Checker

	// mu serializes the first measurement: concurrent first requests wait
	// for the one run instead of each running it. A failed measurement is
	// not kept, so the next request retries it.
	mu   sync.Mutex
	meas *core.Measurement
}

func newEntryLRU(max int) *entryLRU {
	return &entryLRU{max: max, ll: list.New(), m: make(map[string]*list.Element)}
}

// get returns the entry for key, creating (and caching) one on a miss and
// evicting the least-recently-used entry past capacity.
func (l *entryLRU) get(key string) *entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.m[key]; ok {
		l.ll.MoveToFront(el)
		return el.Value.(*entry)
	}
	e := &entry{key: key, checker: rosa.NewChecker()}
	l.m[key] = l.ll.PushFront(e)
	for l.ll.Len() > l.max {
		last := l.ll.Back()
		l.ll.Remove(last)
		delete(l.m, last.Value.(*entry).key)
	}
	return e
}

// len reports the resident entry count (an occupancy gauge).
func (l *entryLRU) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ll.Len()
}

// measurement returns the entry's program measurement, building the program
// and measuring it under ctx on first use. measured reports whether this
// call ran the measurement (a memo miss) rather than reusing one.
func (e *entry) measurement(ctx context.Context) (m *core.Measurement, measured bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.meas != nil {
		return e.meas, false, nil
	}
	p, err := programs.ByName(e.key)
	if err != nil {
		return nil, true, err
	}
	m, err = core.Measure(ctx, p, core.Options{})
	if err != nil {
		return nil, true, err
	}
	e.meas = m
	return m, true, nil
}
