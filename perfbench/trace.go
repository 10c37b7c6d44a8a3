package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// Span names. Every span is recorded by the benchmark around its own call
// into a layer's public function; nothing inside the program is traced.
const (
	spanCell       = iota // one simulated cell: setup, run and teardown
	spanInit              // runtime set-up: Init or construction, Alloc, Bind
	spanServe             // ServeJobs, Start, Drain
	spanCtxRead           // one ctx.Read inside a task closure
	spanCtxCompute        // one ctx.Compute inside a task closure
	spanBFS               // one Bound.BFS
	spanPageRank          // one Bound.PageRank
	spanGUPS              // one gups.Run
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"cell", "charm.init", "core.serve", "core.ctx_read", "core.ctx_compute",
	"workloads.bfs", "workloads.pagerank", "workloads.gups",
}

// Retention caps. Every span is counted and timed in the per-name totals;
// only the first spans of each buffer are kept for the written trace, so
// a traced run's memory and output stay bounded.
const (
	mainSpanCap   = 1 << 16
	workerSpanCap = 1 << 12
	maxWorkers    = 64
)

// span is one recorded interval. Times are host ns since the tracer's
// base; ID's high bits name the buffer that recorded it.
type span struct {
	ID, Parent uint64
	Cell       int32
	Name       uint8
	Start, End int64
}

// spanBuf is one goroutine's buffer: the benchmark's main goroutine owns
// one, and each simulated worker owns one (a worker runs one task body
// at a time, and the runtime hands a worker from goroutine to goroutine
// only through synchronizing operations).
type spanBuf struct {
	idx     uint64
	seq     uint64
	cap     int
	spans   []span
	dropped int64
	count   [numSpanNames]int64
	total   [numSpanNames]int64 // summed durations, ns
	self    [numSpanNames]int64 // summed self time, ns
	_       [64]byte
}

// tracer keeps every span in memory and writes them out once, at the end
// of the run.
type tracer struct {
	base    time.Time
	main    spanBuf
	workers [maxWorkers]spanBuf
}

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	t.main = spanBuf{idx: 0, cap: mainSpanCap}
	for i := range t.workers {
		t.workers[i] = spanBuf{idx: uint64(i + 1), cap: workerSpanCap}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (b *spanBuf) nextID() uint64 {
	b.seq++
	return b.idx<<40 | b.seq
}

func (b *spanBuf) add(s span, self int64) {
	d := s.End - s.Start
	b.count[s.Name]++
	b.total[s.Name] += d
	b.self[s.Name] += self
	if len(b.spans) < b.cap {
		b.spans = append(b.spans, s)
	} else {
		b.dropped++
	}
}

// scope is an open span on the main goroutine. Child spans recorded on
// worker goroutines add their durations to child, so the scope's self
// time is its duration minus the time its children cover. The children
// of one scope never overlap: they run under the deterministic lockstep
// baton, one task body at a time.
type scope struct {
	t      *tracer
	s      span
	child  atomic.Int64
	parent *scope
}

// begin opens a span on the main goroutine. A nil tracer returns a nil
// scope, and every scope method is a no-op on nil.
func (t *tracer) begin(name uint8, cell int32, parent *scope) *scope {
	if t == nil {
		return nil
	}
	sc := &scope{t: t, parent: parent}
	sc.s = span{ID: t.main.nextID(), Cell: cell, Name: name, Start: t.now()}
	if parent != nil {
		sc.s.Parent = parent.s.ID
	}
	return sc
}

// end closes the span and records it with its self time.
func (sc *scope) end() {
	if sc == nil {
		return
	}
	sc.s.End = sc.t.now()
	d := sc.s.End - sc.s.Start
	sc.t.main.add(sc.s, d-sc.child.Load())
	if sc.parent != nil {
		sc.parent.child.Add(d)
	}
}

// leaf records a childless span that ran on simulated worker w's
// goroutine, from start to now.
func (sc *scope) leaf(w int, name uint8, start int64) {
	end := sc.t.now()
	b := &sc.t.workers[w]
	b.add(span{ID: b.nextID(), Parent: sc.s.ID, Cell: sc.s.Cell, Name: name, Start: start, End: end}, end-start)
	sc.child.Add(end - start)
}

// spanTotals sums one span name over every buffer.
type spanTotals struct{ count, totalNS, selfNS int64 }

func (t *tracer) totals(name uint8) spanTotals {
	var s spanTotals
	add := func(b *spanBuf) {
		s.count += b.count[name]
		s.totalNS += b.total[name]
		s.selfNS += b.self[name]
	}
	add(&t.main)
	for i := range t.workers {
		add(&t.workers[i])
	}
	return s
}

// traceFile is the written trace: every retained span, sorted by start,
// with the per-name totals that include the spans not retained.
type traceFile struct {
	Host     hostRecord                `json:"host"`
	Workload string                    `json:"workload"`
	Seed     uint64                    `json:"seed"`
	Columns  []string                  `json:"columns"`
	Names    []string                  `json:"names"`
	Spans    [][6]int64                `json:"spans"`
	Dropped  int64                     `json:"dropped"`
	Totals   map[string]map[string]any `json:"totals"`
}

// write stores the trace as JSON under dir and returns the file's path.
func (t *tracer) write(dir string, host hostRecord, workload string, seed uint64) (string, error) {
	all := append([]span(nil), t.main.spans...)
	dropped := t.main.dropped
	for i := range t.workers {
		all = append(all, t.workers[i].spans...)
		dropped += t.workers[i].dropped
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	f := traceFile{
		Host: host, Workload: workload, Seed: seed,
		Columns: []string{"id", "parent", "cell", "name", "start_ns", "end_ns"},
		Names:   spanNames[:],
		Spans:   make([][6]int64, len(all)),
		Dropped: dropped,
		Totals:  map[string]map[string]any{},
	}
	for i, s := range all {
		f.Spans[i] = [6]int64{int64(s.ID), int64(s.Parent), int64(s.Cell), int64(s.Name), s.Start, s.End}
	}
	for n := uint8(0); n < numSpanNames; n++ {
		tot := t.totals(n)
		f.Totals[spanNames[n]] = map[string]any{
			"count": tot.count, "total_s": float64(tot.totalNS) / 1e9, "self_s": float64(tot.selfNS) / 1e9,
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	return path, writeJSONFile(path, f, false)
}

// writeJSONFile writes v as JSON to path, creating its directory.
func writeJSONFile(path string, v any, indent bool) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if indent {
		enc.SetIndent("", " ")
	}
	if err := enc.Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
