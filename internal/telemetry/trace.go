package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/vclock"
)

// TraceID identifies one logical operation end to end (one client
// frame, one scene op) across every service it touches.
type TraceID uint64

// SpanID identifies one timed stage within a trace.
type SpanID uint64

// SpanContext is the part of a span that crosses service boundaries:
// carried on the wire in the optional trace header so a remote
// service's work parents correctly under the caller's span.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context identifies a real span. The zero
// SpanContext means "not traced" and is what untraced wire messages
// decode to.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 && sc.Span != 0 }

// Span statuses.
const (
	StatusOK       = "ok"
	StatusError    = "error"
	StatusDeclined = "declined"
	StatusDegraded = "degraded"
)

// Span is one completed (or in-flight) stage of a trace. Start/End are
// session-clock nanoseconds, so virtual-clock tests see exact values.
type Span struct {
	Trace   TraceID `json:"trace"`
	ID      SpanID  `json:"id"`
	Parent  SpanID  `json:"parent,omitempty"`
	Service string  `json:"service"`
	Name    string  `json:"name"`
	Peer    string  `json:"peer,omitempty"`
	Attr    string  `json:"attr,omitempty"`
	Status  string  `json:"status,omitempty"`

	StartNanos int64 `json:"start_nanos"`
	EndNanos   int64 `json:"end_nanos,omitempty"`
}

// Tracer records spans on the session clock. Span IDs are allocated
// from a process-wide-unique counter per tracer; in simulated
// deployments every service shares one tracer so a frame's spans form
// a single tree with globally unique IDs.
//
// A nil *Tracer is a valid no-op tracer: every method (and every
// method of the nil *ActiveSpan it returns) is safe to call, so
// instrumented code paths never branch on "is tracing on".
type Tracer struct {
	clock  vclock.Clock
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []Span
}

// NewTracer returns a tracer timestamping spans from clock (nil means
// the real clock).
func NewTracer(clock vclock.Clock) *Tracer {
	if clock == nil {
		clock = vclock.Real{}
	}
	return &Tracer{clock: clock}
}

// ActiveSpan is a started, not-yet-ended span. All methods tolerate a
// nil receiver (returned by a nil tracer or for an invalid parent).
type ActiveSpan struct {
	tracer *Tracer
	span   Span
	done   atomic.Bool
}

// Root starts a new trace and returns its root span.
func (t *Tracer) Root(service, name string) *ActiveSpan {
	if t == nil {
		return nil
	}
	id := t.nextID.Add(1)
	return &ActiveSpan{tracer: t, span: Span{
		Trace: TraceID(id), ID: SpanID(id),
		Service: service, Name: name,
		StartNanos: t.clock.Now().UnixNano(),
	}}
}

// Child starts a span under parent. An invalid parent (for example a
// zero SpanContext decoded from an untraced wire message) yields a nil
// span: work proceeds untraced rather than producing orphan spans.
func (t *Tracer) Child(parent SpanContext, service, name string) *ActiveSpan {
	if t == nil || !parent.Valid() {
		return nil
	}
	return &ActiveSpan{tracer: t, span: Span{
		Trace: parent.Trace, ID: SpanID(t.nextID.Add(1)), Parent: parent.Span,
		Service: service, Name: name,
		StartNanos: t.clock.Now().UnixNano(),
	}}
}

// Context returns the span's wire context (zero for a nil span).
func (s *ActiveSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.span.Trace, Span: s.span.ID}
}

// SetPeer records the remote peer this span's work was sent to.
func (s *ActiveSpan) SetPeer(peer string) {
	if s != nil {
		s.span.Peer = peer
	}
}

// SetAttr records a free-form attribute (for example a tile rect).
func (s *ActiveSpan) SetAttr(attr string) {
	if s != nil {
		s.span.Attr = attr
	}
}

// End completes the span with StatusOK.
func (s *ActiveSpan) End() { s.EndStatus(StatusOK) }

// EndStatus completes the span with the given status and commits it to
// the tracer. Ending twice is a no-op (first status wins), so deferred
// End after an explicit EndStatus is safe.
func (s *ActiveSpan) EndStatus(status string) {
	if s == nil || !s.done.CompareAndSwap(false, true) {
		return
	}
	s.span.Status = status
	s.span.EndNanos = s.tracer.clock.Now().UnixNano()
	s.tracer.mu.Lock()
	s.tracer.spans = append(s.tracer.spans, s.span)
	s.tracer.mu.Unlock()
}

// Spans returns all completed spans sorted by ID — a deterministic
// order, because IDs allocate in program order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Tree is a span with its children, as assembled by BuildTrees.
type Tree struct {
	Span     Span
	Children []*Tree
}

// Walk visits the tree depth-first, parents before children.
func (n *Tree) Walk(visit func(depth int, s Span)) { n.walk(0, visit) }

func (n *Tree) walk(depth int, visit func(int, Span)) {
	visit(depth, n.Span)
	for _, c := range n.Children {
		c.walk(depth+1, visit)
	}
}

// Find returns the first span in the tree (depth-first) with the given
// name, and whether one was found.
func (n *Tree) Find(name string) (Span, bool) {
	var found Span
	ok := false
	n.Walk(func(_ int, s Span) {
		if !ok && s.Name == name {
			found, ok = s, true
		}
	})
	return found, ok
}

// Count returns the number of spans in the tree with the given name.
func (n *Tree) Count(name string) int {
	c := 0
	n.Walk(func(_ int, s Span) {
		if s.Name == name {
			c++
		}
	})
	return c
}

// BuildTrees assembles spans into per-trace trees. Roots (spans with
// no parent, or whose parent is missing from the slice) are ordered by
// span ID; children under each parent likewise. The input order is
// irrelevant, so trees built from concurrent span commits are
// deterministic.
func BuildTrees(spans []Span) []*Tree {
	sorted := append([]Span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	nodes := make(map[SpanID]*Tree, len(sorted))
	for _, s := range sorted {
		nodes[s.ID] = &Tree{Span: s}
	}
	var roots []*Tree
	for _, s := range sorted {
		n := nodes[s.ID]
		if p, ok := nodes[s.Parent]; ok && s.Parent != 0 && s.Parent != s.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// FormatTrees renders trees as indented text, one line per span:
//
//	frame service=data 0ms ok
//	  render-tile service=data peer=athlon [0,0,96,32] 0ms ok
//
// The output is deterministic for deterministic span sets, so tests
// may compare it byte for byte.
func FormatTrees(trees []*Tree) string {
	var b strings.Builder
	for _, tr := range trees {
		tr.Walk(func(depth int, s Span) {
			b.WriteString(strings.Repeat("  ", depth))
			b.WriteString(s.Name)
			fmt.Fprintf(&b, " service=%s", s.Service)
			if s.Peer != "" {
				fmt.Fprintf(&b, " peer=%s", s.Peer)
			}
			if s.Attr != "" {
				fmt.Fprintf(&b, " %s", s.Attr)
			}
			fmt.Fprintf(&b, " %dns", s.EndNanos-s.StartNanos)
			if s.Status != "" {
				fmt.Fprintf(&b, " %s", s.Status)
			}
			b.WriteByte('\n')
		})
	}
	return b.String()
}
