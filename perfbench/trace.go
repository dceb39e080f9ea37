package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer keeps spans in memory for the traced run and writes them out at
// the end. Spans wrap the benchmark's own calls into each layer's public
// functions; the program itself is not instrumented.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent and returns its id.
func (t *tracer) start(name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// rename relabels a span once its outcome is known (the formal strategy).
func (t *tracer) rename(id int, name string) {
	t.mu.Lock()
	t.spans[id-1].Name = name
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, f func(id int)) {
	id := t.start(name, parent)
	f(id)
	t.end(id)
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
	durs  []time.Duration
}

// mean is the mean span duration.
func (s layerStat) mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// median is the median span duration.
func (s layerStat) median() time.Duration { return quantileDur(s.durs, 0.5) }

// stats aggregates spans by name. A span's self time is its duration minus
// the part of its interval that its children cover (children may overlap,
// as the judge's concurrent checks do, so their union is subtracted).
func (t *tracer) stats() map[string]*layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]*layerStat{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.Count++
		st.Total += d
		st.Self += d - time.Duration(covered(children[s.ID], s.Start, s.End))
		st.durs = append(st.durs, d)
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write saves the spans and their per-name aggregates as JSON under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	st := t.stats()
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"spans": t.spans, "layers": st})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
