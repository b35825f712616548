package follow

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/marshal"
	"repro/internal/mathx"
	"repro/internal/scene"
	"repro/internal/transport"
)

// copyTarget is a Target over a bare scene that checks the one thing a
// follower must never do to its copy once bootstrapped: take it back.
type copyTarget struct {
	t     *testing.T
	sc    *scene.Scene
	based bool
}

func (c *copyTarget) Version() uint64 {
	if c.sc == nil {
		return 0
	}
	return c.sc.Version
}

func (c *copyTarget) Install(sc *scene.Scene) error {
	if c.based && sc.Version < c.Version() {
		c.t.Errorf("snapshot took the copy from version %d back to %d", c.Version(), sc.Version)
	}
	c.sc = sc
	return nil
}

func (c *copyTarget) Apply(op scene.Op) error {
	if c.sc == nil {
		return errors.New("no copy to apply to")
	}
	return c.sc.ApplyOp(op)
}

func (c *copyTarget) SetCamera(transport.CameraState) error { return nil }

// rename is an op that applies to any scene, so a test can offer
// versions in any order and read back which were applied from the name.
func rename(v uint64) scene.Op {
	return &scene.SetNameOp{ID: scene.RootID, Name: fmt.Sprintf("v%d", v)}
}

func sceneAt(v uint64) *scene.Scene {
	sc := scene.New()
	sc.Version = v
	return sc
}

// TestSequencerRule walks the version rule one row at a time.
func TestSequencerRule(t *testing.T) {
	tgt := &copyTarget{t: t}
	q := NewSequencer(tgt)
	step := func(what string, err error, wantVersion uint64, wantHeld int, wantGap bool) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if tgt.Version() != wantVersion || len(q.held) != wantHeld || q.Gap() != wantGap {
			t.Fatalf("%s: version %d, %d held, gap %t; want version %d, %d held, gap %t",
				what, tgt.Version(), len(q.held), q.Gap(), wantVersion, wantHeld, wantGap)
		}
	}
	step("before the bootstrap everything is held", q.Offer(11, rename(11)), 0, 1, false)
	step("even a version the old copy had", q.Offer(3, rename(3)), 0, 2, false)
	step("install drops what it covers, drains the rest", q.Install(sceneAt(10)), 11, 0, false)
	tgt.based = true
	step("stale", q.Offer(11, rename(11)), 11, 0, false)
	step("next", q.Offer(12, rename(12)), 12, 0, false)
	step("ahead", q.Offer(15, rename(15)), 12, 1, true)
	step("ahead again", q.Offer(14, rename(14)), 12, 2, true)
	step("the missing op drains its successors", q.Offer(13, rename(13)), 15, 0, false)
	step("ahead once more", q.Offer(18, rename(18)), 15, 1, true)
	step("a snapshot short of the held op keeps it", q.Install(sceneAt(16)), 16, 1, true)
	step("one that reaches it drains it", q.Install(sceneAt(17)), 18, 0, false)
	step("one older than the copy is dropped", q.Install(sceneAt(12)), 18, 0, false)
	step("early during a promised replay is not a gap", errors.Join(q.Resume(20), q.Offer(21, rename(21))), 18, 1, false)
	step("the replay arrives", errors.Join(q.Offer(19, rename(19)), q.Offer(20, rename(20))), 21, 0, false)
	if got := tgt.sc.Root.Name; got != "v21" {
		t.Errorf("last op applied was %q, want v21", got)
	}
}

// TestSequencerBoundsHeldOps: a follower this far ahead of its copy
// fails loudly instead of buffering without limit.
func TestSequencerBoundsHeldOps(t *testing.T) {
	q := NewSequencer(&copyTarget{t: t})
	for v := uint64(1); v <= maxHeld; v++ {
		if err := q.Offer(v+1, rename(v+1)); err != nil {
			t.Fatalf("op %d of %d refused: %v", v, maxHeld, err)
		}
	}
	if err := q.Offer(maxHeld+2, rename(maxHeld+2)); err == nil {
		t.Fatal("held op past the bound accepted")
	}
}

// scripted is the primary's side of a stream played from memory: Read
// serves the frames in order, Write parses what the follower sends. It
// checks, as the stream runs, that no resync request is sent while an
// earlier one is unanswered — a request counts as answered once the
// follower has read the next snapshot, or given up on once it has read a
// version report, off the wire.
type scripted struct {
	t      *testing.T
	frames [][]byte // encoded transport frames, primary → follower
	kinds  []transport.MsgType
	next   int // frames[next:] are unread
	cur    []byte
	sent   bytes.Buffer // follower → primary, frames appended whole

	outstanding int
	requests    int
}

// frame is one message of a script.
type frame struct {
	t       transport.MsgType
	payload []byte
}

func script(frames ...frame) *scripted {
	p := &scripted{}
	for _, f := range frames {
		var buf bytes.Buffer
		if err := transport.NewConn(&buf).Send(f.t, f.payload); err != nil {
			panic(err)
		}
		p.frames, p.kinds = append(p.frames, buf.Bytes()), append(p.kinds, f.t)
	}
	return p
}

func (p *scripted) Read(b []byte) (int, error) {
	if len(p.cur) == 0 {
		if p.next == len(p.frames) {
			return 0, io.EOF
		}
		p.cur = p.frames[p.next]
		p.next++
	}
	n := copy(b, p.cur)
	p.cur = p.cur[n:]
	if k := p.kinds[p.next-1]; len(p.cur) == 0 && (k == transport.MsgSceneSnapshot || k == transport.MsgVersionReport) {
		// Whatever the follower sends from here on, it has the answer —
		// or the authority's word that a probe sent after the request
		// was answered and the request was not.
		p.outstanding = 0
	}
	return n, nil
}

func (p *scripted) Write(b []byte) (int, error) {
	p.sent.Write(b)
	if transport.MsgType(binary.BigEndian.Uint16(b[2:])) == transport.MsgResyncRequest {
		p.requests++
		if p.outstanding++; p.outstanding > 1 {
			p.t.Errorf("resync request %d sent while one is unanswered", p.requests)
		}
	}
	return len(b), nil
}

// play runs a Stream with no Hook against the script, the follower
// holding a copy at version start (none when 0), and returns the copy's
// final version and the resync requests sent.
func play(t *testing.T, p *scripted, start uint64) (version uint64, requests int) {
	p.t = t
	tgt := &copyTarget{t: t}
	if start > 0 {
		tgt.sc = sceneAt(start)
	}
	st := &Stream{Conn: transport.NewConn(p), Hello: transport.Hello{Role: "test", Name: "f", Session: "s"}, Target: tgt}
	st.Ready = func() error { tgt.based = true; return nil }
	_, _ = st.Run(context.Background()) // how the stream ended is the caller's row to judge
	return tgt.Version(), p.requests
}

func snap(v uint64) frame {
	var buf bytes.Buffer
	if err := marshal.WriteScene(&buf, sceneAt(v)); err != nil {
		panic(err)
	}
	return frame{transport.MsgSceneSnapshot, buf.Bytes()}
}

func op(v uint64) frame {
	var buf bytes.Buffer
	if err := marshal.WriteOp(&buf, rename(v)); err != nil {
		panic(err)
	}
	return frame{transport.MsgSceneOpVer, transport.PackVersioned(v, buf.Bytes())}
}

func resume(v uint64) frame {
	return frame{transport.MsgResumeOK, []byte(fmt.Sprintf(`{"version":%d}`, v))}
}

func raw(t transport.MsgType, payload string) frame { return frame{t, []byte(payload)} }

// seedScripts are the socket scripts of the conformance table
// (internal/dataservice TestFollowerConformance), one connection each,
// followed by frames no well-behaved primary sends.
func seedScripts() []*scripted {
	var plainOp bytes.Buffer
	if err := marshal.WriteOp(&plainOp, &scene.SetTransformOp{ID: scene.RootID, Transform: mathx.Identity()}); err != nil {
		panic(err)
	}
	return []*scripted{
		script(snap(5), op(6), op(7)),
		script(snap(5), op(6), op(6), op(7), op(6)),
		script(resume(8), op(7), op(8)),
		script(resume(7), op(8), op(6), op(7)),
		script(op(6), snap(5)),
		script(snap(5), op(7), op(6)),
		script(snap(5), op(7), op(8), op(9), op(10), snap(10)),
		script(snap(5), op(7), op(9), snap(8), op(10)),
		script(snap(5), op(7), op(6), op(8), snap(7)),
		script(snap(5), raw(transport.MsgCameraUpdate, `{"eye":[1,2,3],"fov_y":0.7}`),
			raw(transport.MsgSceneOp, plainOp.String()), op(7), raw(transport.MsgBye, "")),
		script(raw(transport.MsgError, `{"message":"no such session"}`)),
		script(raw(transport.MsgOK, ""), snap(5)),
		script(snap(5), raw(transport.MsgSceneOpVer, "short"), op(6)),
		script(snap(5), raw(transport.MsgSceneSnapshot, "garbage")),
		script(snap(5), raw(transport.MsgVersionReport, `{"version":9}`), raw(transport.MsgVersionReport, `{"version":9}`),
			op(9), raw(transport.MsgVersionReport, `{"version":5}`), op(12), resume(3), op(4)),
	}
}

// TestStreamScripts pins what the follower makes of the well-formed
// seeds: the same rows, versions and resync counts as the conformance
// table, here against the bare Stream.
func TestStreamScripts(t *testing.T) {
	want := []struct {
		start, version uint64
		requests       int
	}{{0, 7, 0}, {0, 7, 0}, {6, 8, 0}, {5, 8, 0}, {0, 6, 0}, {0, 7, 1}, {0, 10, 1}, {0, 10, 1}, {0, 8, 1}}
	for i, p := range seedScripts()[:len(want)] {
		version, requests := play(t, p, want[i].start)
		if version != want[i].version || requests != want[i].requests {
			t.Errorf("script %d: version %d after %d resync requests, want %d after %d", i, version, requests, want[i].version, want[i].requests)
		}
	}
}

// FuzzFollow feeds the shared loop arbitrary frames from the primary's
// side: it must not panic, must not take the copy backwards once
// bootstrapped (copyTarget), and must never have two resync requests
// unanswered (scripted). The input is a sequence of
// [type:1][len:2][payload] records, each sent as one well-framed
// message — the transport's own framing has its own tests.
func FuzzFollow(f *testing.F) {
	for _, p := range seedScripts() {
		var in []byte
		for i, frame := range p.frames {
			payload := frame[12:] // past the transport header
			in = append(in, byte(p.kinds[i]), byte(len(payload)>>8), byte(len(payload)))
			in = append(in, payload...)
		}
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var frames []frame
		for len(in) >= 3 {
			n := int(in[1])<<8 | int(in[2])
			if n > len(in)-3 {
				n = len(in) - 3
			}
			frames = append(frames, frame{transport.MsgType(in[0]), in[3 : 3+n]})
			in = in[3+n:]
		}
		play(t, script(frames...), 0)
	})
}
