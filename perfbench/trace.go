package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's own code. Spans of one message share its ID; Parent
// indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"` // ns since the pass began
	End    int64  `json:"end"`
}

// tracer keeps the spans of traced passes in memory; they are summarized
// and written out when the run ends. One message in every is sampled; sink writes are
// recorded for every record (records are far rarer than messages) under
// the current parent. Only one goroutine records at a time.
type tracer struct {
	every  int
	epoch  time.Time
	spans  []span
	parent int // parent for sink.write spans; -1 = root
	// bufferedMax is the reorder-buffer depth seen at sampled pushes.
	bufferedMax float64
	// Every Push of a traced pass is timed into these counters, so the
	// ledger's push time is exact rather than a sample mean (push times
	// are heavy-tailed: a few closing pushes dominate).
	pushNs, pushes, blockedNs int64
}

// push counts one timed Push call.
func (t *tracer) push(d time.Duration) {
	t.pushNs += d.Nanoseconds()
	t.pushes++
	if d > blockedPush {
		t.blockedNs += d.Nanoseconds()
	}
}

func newTracer(every int) *tracer {
	return &tracer{every: every, parent: -1, spans: make([]span, 0, 1<<16)}
}

// sampled reports whether message i is traced. The choice is a hash of
// the index, not i%every, so that it cannot alias with the dispatchers'
// fixed batch size and skip every batch-closing push.
func (t *tracer) sampled(i int) bool {
	x := uint64(i) * 0x9E3779B97F4A7C15
	return (x>>32)%uint64(t.every) == 0
}

// pass starts a traced pass whose spans are timed from start.
func (t *tracer) pass(start time.Time) { t.epoch = start }

func (t *tracer) begin(name string, id int64, parent int, at time.Time) int {
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: at.Sub(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int, at time.Time) { t.spans[i].End = at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) sinkWrite(start, end time.Time) {
	i := t.begin("sink.write", -1, t.parent, start)
	t.end(i, end)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the summed self time (duration minus
// the part covered by child spans; children of one parent never overlap
// here, so the covered part is their summed duration clipped to the
// parent) and the span count, over spans[from:].
func (t *tracer) selfTimes(from int) (self map[string]int64, count map[string]int) {
	child := make(map[int]int64)
	for _, s := range t.spans[from:] {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self = make(map[string]int64)
	count = make(map[string]int)
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		d := s.End - s.Start
		self[s.Name] += max(0, d-min(d, child[i]))
		count[s.Name]++
	}
	return self, count
}
