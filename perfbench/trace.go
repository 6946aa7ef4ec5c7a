package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, the span that caused
// it (0 for a root) and its start and end in nanoseconds since the
// tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op that returns at once, so
// the same replay code serves both runs.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its handle.
func (t *tracer) begin(name string, parent int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return openSpan{t: t, id: id, parent: parent, name: name, start: time.Since(t.t0).Nanoseconds()}
}

// openSpan is a begun span; end records it.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  int64
}

func (o openSpan) end() {
	if o.t == nil {
		return
	}
	s := span{ID: o.id, Parent: o.parent, Name: o.name, Start: o.start, End: time.Since(o.t.t0).Nanoseconds()}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, s)
	o.t.mu.Unlock()
}

// record adds a finished span measured by the caller (used where the
// caller already holds start and end times, e.g. an HTTP middleware).
func (t *tracer) record(name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanStats summarizes every span of one name.
type spanStats struct {
	count int
	total int64 // summed duration, ns
	self  int64 // summed self time, ns
	durs  []float64
}

// summarize groups spans by name, with each span's self time: its
// duration minus the part of its interval covered by its children.
// Children that overlap (parallel work under one parent) are merged
// before subtracting, so self time never goes negative.
func summarize(spans []span) map[string]*spanStats {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*spanStats)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.count++
		st.total += s.dur()
		st.self += selfTime(s, children[s.ID])
		st.durs = append(st.durs, float64(s.dur()))
	}
	return out
}

// selfTime is s's duration minus the union of its children's intervals
// clipped to s.
func selfTime(s span, kids []span) int64 {
	if len(kids) == 0 {
		return s.dur()
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered := int64(0)
	curLo, curHi := int64(-1), int64(-1)
	for _, x := range iv {
		if x[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	covered += curHi - curLo
	return s.dur() - covered
}

// writeSpans stores the spans as JSON lines at path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// printSelfTimes adds one informational line per span name with its
// call count, total and self time.
func printSelfTimes(rep *report, sum map[string]*spanStats) {
	names := make([]string, 0, len(sum))
	for name := range sum {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := sum[name]
		rep.addInfo("self "+name, float64(st.self)/1e9, "s",
			fmt.Sprintf("(%d spans, total %.4f s)", st.count, float64(st.total)/1e9))
	}
}
