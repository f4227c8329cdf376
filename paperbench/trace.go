package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans nest: parent is the index of the span that
// was open when this one began (-1 for a root).
type span struct {
	name   string
	tag    int32 // optional grouping key, e.g. the code distance
	parent int32
	start  int64 // ns since the tracer's epoch
	end    int64
}

// tracer keeps the spans of one traced pass in memory. The mc engine runs
// shards inline at one worker, so a tracer is used by one goroutine only.
type tracer struct {
	epoch time.Time
	spans []span
	open  int32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the innermost open one and returns its handle.
// A nil tracer records nothing.
func (t *tracer) begin(name string, tag int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, tag: tag, parent: t.open, start: t.now()})
	t.open = int32(len(t.spans) - 1)
	return t.open
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.end = t.now()
	t.open = s.parent
}

// reset drops the recorded spans, keeping the buffer for the next pass.
func (t *tracer) reset() {
	t.spans = t.spans[:0]
	t.open = -1
}

// spanKey groups spans by name and tag.
type spanKey struct {
	name string
	tag  int32
}

// spanAgg is the folded form of every span with one key.
type spanAgg struct {
	count int64
	total int64 // ns, summed durations
	self  int64 // ns, durations minus the part covered by child spans
}

// profile is the per-key aggregate of one or more traced passes.
type profile struct {
	byKey map[spanKey]*spanAgg
	root  int64 // ns covered by root spans
}

func newProfile() *profile { return &profile{byKey: map[spanKey]*spanAgg{}} }

// fold adds the tracer's spans to the profile.
func (p *profile) fold(t *tracer) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		k := spanKey{s.name, s.tag}
		a := p.byKey[k]
		if a == nil {
			a = &spanAgg{}
			p.byKey[k] = a
		}
		d := s.end - s.start
		a.count++
		a.total += d
		a.self += d - child[i]
		if s.parent < 0 {
			p.root += d
		}
	}
}

// total returns the summed duration of spans named name, any tag.
func (p *profile) total(name string) int64 {
	var ns int64
	for k, a := range p.byKey {
		if k.name == name {
			ns += a.total
		}
	}
	return ns
}

// tagged returns the summed duration of spans with the name and tag.
func (p *profile) tagged(name string, tag int32) int64 {
	if a := p.byKey[spanKey{name, tag}]; a != nil {
		return a.total
	}
	return 0
}

// self returns the summed self time of spans named name, any tag.
func (p *profile) self(name string) int64 {
	var ns int64
	for k, a := range p.byKey {
		if k.name == name {
			ns += a.self
		}
	}
	return ns
}

// taggedSelf returns the summed self time of spans with the name and tag.
func (p *profile) taggedSelf(name string, tag int32) int64 {
	if a := p.byKey[spanKey{name, tag}]; a != nil {
		return a.self
	}
	return 0
}

// write renders the profile as a table, one row per span key.
func (p *profile) write(w io.Writer, wall int64) {
	keys := make([]spanKey, 0, len(p.byKey))
	for k := range p.byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].tag < keys[j].tag
	})
	fmt.Fprintf(w, "%-24s %5s %10s %12s %12s %7s\n", "span", "tag", "count", "total_ms", "self_ms", "self%")
	for _, k := range keys {
		a := p.byKey[k]
		fmt.Fprintf(w, "%-24s %5d %10d %12.3f %12.3f %6.2f%%\n", k.name, k.tag, a.count,
			float64(a.total)/1e6, float64(a.self)/1e6, 100*float64(a.self)/float64(wall))
	}
}
