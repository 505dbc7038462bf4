package main

import (
	"strings"
	"sync"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers around that layer's public functions.
type span struct {
	name       string
	parent     int32 // index of the enclosing span, -1 at top level
	start, end int64 // now() nanoseconds
}

// tracer keeps a traced pass's spans in memory. Every workload is a
// closed loop with one call in flight at a time, even where the calls
// cross goroutines (HTTP handler, ingest committer, virtual-clock
// timers), so the innermost open span is the parent of the next one
// and one stack serves every goroutine. A nil *tracer is off: begin
// and end cost one nil check.
type tracer struct {
	mu    sync.Mutex
	on    bool
	spans []span
	open  []int32
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	if !t.on {
		t.mu.Unlock()
		return -1
	}
	parent := int32(-1)
	if k := len(t.open); k > 0 {
		parent = t.open[k-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, start: now()})
	t.open = append(t.open, i)
	t.mu.Unlock()
	return i
}

// end closes the span begin returned, and any span opened inside it
// that was left open.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].end = now()
	for k := len(t.open) - 1; k >= 0; k-- {
		if t.open[k] == i {
			t.open = t.open[:k]
			break
		}
	}
	t.mu.Unlock()
}

// record switches recording on for a timed loop and off again after
// it, so set-up and checks leave no spans.
func (t *tracer) record(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// spanStats is what a traced pass derives from its spans.
type spanStats struct {
	// durs and selfs hold every span's duration and self time (its
	// duration minus what its direct children cover), by span name.
	durs, selfs map[string][]int64
	// layerSelf sums self time by layer (the span name's prefix).
	layerSelf map[string]int64
	// covered is the time spent inside calls into a layer: the summed
	// duration of top-level spans minus the self time of catch-all
	// spans.
	covered int64
}

// catchAll names the spans that wrap a whole timed loop rather than
// one call into a layer: sim.Run on the replays, and the virtual
// clock's advance on the serving workloads, inside which completions,
// decisions and journal writes happen. Their self time is work no
// finer span covers (the simulator loop, ledger, clock and engine
// internals), so it counts as unaccounted rather than covered.
var catchAll = map[string]bool{"sim.run": true, "engine.advance": true}

func (t *tracer) stats() spanStats {
	st := spanStats{
		durs:      make(map[string][]int64),
		selfs:     make(map[string][]int64),
		layerSelf: make(map[string]int64),
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		self := d - child[i]
		st.durs[s.name] = append(st.durs[s.name], d)
		st.selfs[s.name] = append(st.selfs[s.name], self)
		st.layerSelf[layerOf(s.name)] += self
		if s.parent < 0 {
			st.covered += d
		}
		if catchAll[s.name] {
			st.covered -= self
		}
	}
	return st
}

// layers are the benchmark's layer names, in print order; every span
// name starts with one of them.
var layers = []string{"sim", "policy", "client", "federation", "transport", "shard", "server", "engine", "journal"}

func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// total returns the sum of vs.
func total(vs []int64) int64 {
	var t int64
	for _, v := range vs {
		t += v
	}
	return t
}
