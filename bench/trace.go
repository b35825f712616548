package main

import (
	"encoding/json"
	"net"
	"os"
	"time"

	"repro/internal/transport"
)

// span is one timed call in a traced run. Root spans (Parent 0) are the
// workload's real ops; every other span is the harness calling one
// layer's public functions again on that op's real inputs, right after
// the op returned. A child is therefore a replay of part of its parent,
// not an interval inside it: a layer's self time is its span's duration
// minus its children's durations.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Block   int    `json:"block"`
	Op      int    `json:"op"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	block int // the timed block and op new spans belong to
	op    int
	spans []span
	// counts are per-op quantities read at the same boundaries as the
	// spans (bytes moved, triangles drawn), keyed by metric name.
	counts map[string][]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string][]float64{}} }

// count records one op's value of a counted quantity.
func (t *tracer) count(name string, v float64) { t.counts[name] = append(t.counts[name], v) }

// add records a span that was timed by the caller.
func (t *tracer) add(parent int, layer, name string, start time.Time, d time.Duration) int {
	id := len(t.spans) + 1
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Block: t.block, Op: t.op, Layer: layer, Name: name,
		StartNs: s, EndNs: s + d.Nanoseconds(),
	})
	return id
}

// run times fn as a span under parent.
func (t *tracer) run(parent int, layer, name string, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	d := time.Since(start)
	return t.add(parent, layer, name, start, d), d
}

// selfMs groups every non-root span's self time by "layer.name", each
// scaled by its block's speed index.
func (t *tracer) selfMs(index map[int]float64) map[string][]float64 {
	children := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		children[s.Parent] += s.EndNs - s.StartNs
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		if s.Parent == 0 {
			continue
		}
		self := s.EndNs - s.StartNs - children[s.ID]
		if self < 0 {
			self = 0
		}
		key := s.Layer + "." + s.Name
		out[key] = append(out[key], float64(self)/1e6*index[s.Block])
	}
	return out
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// echoLink is a loopback TCP socket pair with a transport.Conn on each
// end, for timing the transport layer on an op's real payloads: the far
// end receives each message (reading and checksumming it as a service
// would) and acknowledges with an empty MsgOK.
type echoLink struct {
	near *transport.Conn
	raw  net.Conn
	done chan struct{}
}

func newEchoLink() (*echoLink, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	far, err := ln.Accept()
	if err != nil {
		raw.Close()
		return nil, err
	}
	l := &echoLink{near: transport.NewConn(raw), raw: raw, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		defer far.Close()
		conn := transport.NewConn(far)
		for {
			if _, _, err := conn.Receive(); err != nil {
				return
			}
			if err := conn.Send(transport.MsgOK, nil); err != nil {
				return
			}
		}
	}()
	return l, nil
}

// roundTrip sends payload and waits for the far end's acknowledgement;
// it also returns how long the send alone took, for paths that do not
// wait for their peer.
func (l *echoLink) roundTrip(t transport.MsgType, payload []byte) (send time.Duration, err error) {
	t0 := time.Now()
	if err := l.near.Send(t, payload); err != nil {
		return 0, err
	}
	send = time.Since(t0)
	_, _, err = l.near.Receive()
	return send, err
}

// close ends the far goroutine and waits for it.
func (l *echoLink) close() {
	l.raw.Close()
	<-l.done
}
