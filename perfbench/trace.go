package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer: its name, the job it served (empty
// for work no single job owns), and its interval in nanoseconds since the
// tracer's epoch. Parent is the index of the enclosing span, -1 for roots.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// not yet switched on, records nothing, so the untraced path pays one
// branch per call.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type spanKey struct{}

// parentOf is the span the calls under ctx are children of.
func parentOf(ctx context.Context) int {
	if id, ok := ctx.Value(spanKey{}).(int); ok {
		return id
	}
	return -1
}

// begin opens a span under ctx's span and returns a context carrying it;
// the id is -1 when nothing is recorded.
func (t *tracer) begin(ctx context.Context, name, job string) (context.Context, int) {
	if t == nil || !t.on.Load() {
		return ctx, -1
	}
	start := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parentOf(ctx), Name: name, Job: job, Start: start, End: -1})
	t.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, id), id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// interval records a span whose bounds come from timestamps rather than a
// call the benchmark made (the service's queue and execution intervals).
func (t *tracer) interval(parent int, name, job string, from, to time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Job: job,
		Start: int64(from.Sub(t.epoch)), End: int64(to.Sub(t.epoch))})
	t.mu.Unlock()
}

// finished returns the closed spans recorded so far.
func (t *tracer) finished() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as NDJSON, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.finished() {
		if err := enc.Encode(s); err != nil {
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

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers. The
// result is indexed like spans.
func selfTimes(spans []span) []int64 {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make([][]span, len(spans))
	for _, s := range spans {
		if p, ok := index[s.Parent]; ok && s.Parent >= 0 {
			children[p] = append(children[p], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[i])
	}
	return self
}

// covered is the length of parent's interval covered by the union of the
// children's intervals, each clipped to the parent.
func covered(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// byName groups span durations in milliseconds by name.
func byName(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur())/1e6)
	}
	return out
}
