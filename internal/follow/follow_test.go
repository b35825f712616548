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
	tgt := &copyTarget{t: t, sc: sceneAt(20)}
	q := NewSequencer(tgt)
	step := func(what string, err error, wantVersion uint64) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if tgt.Version() != wantVersion {
			t.Fatalf("%s: version %d, want %d", what, tgt.Version(), wantVersion)
		}
	}
	if err := q.Offer(21, rename(21)); !errors.Is(err, ErrLost) {
		t.Fatalf("an op before the bootstrap: %v, want ErrLost", err)
	}
	step("the bootstrap may take the copy backwards", q.Install(sceneAt(10)), 10)
	tgt.based = true
	step("stale", q.Offer(10, rename(10)), 10)
	step("next", q.Offer(11, rename(11)), 11)
	if err := q.Offer(13, rename(13)); !errors.Is(err, ErrLost) || tgt.Version() != 11 {
		t.Fatalf("an op ahead of the copy at 11: %v, version %d; want ErrLost at 11", err, tgt.Version())
	}
	if got := tgt.sc.Root.Name; got != "v11" {
		t.Errorf("last op applied was %q, want v11", got)
	}

	resumed := &copyTarget{t: t, sc: sceneAt(20)}
	q = NewSequencer(resumed)
	q.Resume()
	if err := errors.Join(q.Offer(20, rename(20)), q.Offer(21, rename(21))); err != nil || resumed.Version() != 21 {
		t.Fatalf("a resumed copy at 20 offered 20 and 21: version %d, %v; want 21", resumed.Version(), err)
	}
}

// scripted is the primary's side of a stream played from memory: Read
// serves the frames in order, Write checks that the follower sends its
// hello and nothing else — a lost op is recovered by a redial, never by
// asking on the stream.
type scripted struct {
	t      *testing.T
	frames [][]byte // encoded transport frames, primary → follower
	kinds  []transport.MsgType
	next   int // frames[next:] are unread
	cur    []byte
	hello  bool // the follower has sent its hello
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
	return n, nil
}

func (p *scripted) Write(b []byte) (int, error) {
	if t := transport.MsgType(binary.BigEndian.Uint16(b[2:])); t != transport.MsgHello || p.hello {
		p.t.Errorf("the follower sent %s after its hello", t)
	}
	p.hello = true
	return len(b), nil
}

// play runs a Stream with no Hook against the script, the follower
// holding a copy at version start (none when 0), and returns the copy's
// final version, how many frames the follower read before the stream
// ended, and how it ended.
func play(t *testing.T, p *scripted, start uint64) (version uint64, read int, err error) {
	p.t = t
	tgt := &copyTarget{t: t}
	if start > 0 {
		tgt.sc = sceneAt(start)
	}
	st := &Stream{Conn: transport.NewConn(p), Hello: transport.Hello{Role: "test", Name: "f", Session: "s"}, Target: tgt}
	st.Ready = func() error { tgt.based = true; return nil }
	_, err = st.Run(context.Background())
	return tgt.Version(), p.next, err
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

// skip is the skip record for version v: the op that produced it is
// outside the follower's interest.
func skip(v uint64) frame { return frame{transport.MsgSceneOpVer, transport.PackVersioned(v, nil)} }

func resume(v uint64) frame {
	return frame{transport.MsgResumeOK, []byte(fmt.Sprintf(`{"version":%d}`, v))}
}

func raw(t transport.MsgType, payload string) frame { return frame{t, []byte(payload)} }

var bye = raw(transport.MsgBye, "")

// seedScripts are the connections of the conformance table's socket
// scripts (internal/dataservice TestFollowerConformance) up to where the
// follower ends them, then two streams the authority cut at a failed
// delivery, then two bootstrap replies after the bootstrap, then skip
// records under each row of the version rule, a skip record's prefix cut
// short and a bare op, which only a subscriber sends, then frames no
// well-behaved primary sends.
func seedScripts() []*scripted {
	var plainOp bytes.Buffer
	if err := marshal.WriteOp(&plainOp, &scene.SetTransformOp{ID: scene.RootID, Transform: mathx.Identity()}); err != nil {
		panic(err)
	}
	return []*scripted{
		script(snap(5), op(6), op(7), bye),
		script(snap(5), op(6), op(6), op(7), op(6), bye),
		script(resume(8), op(7), op(8), bye),
		script(resume(7), op(8), op(6), op(7)),
		script(op(6), snap(5)),
		script(snap(5), op(7), op(6)),
		script(snap(5), op(7), op(8), op(9), op(10)),
		script(snap(5), op(7), op(9), snap(8), op(9), op(10)),
		script(snap(5), op(7), op(6), op(7), op(8), snap(7), op(8)),
		script(snap(5), op(6), op(7)),
		script(resume(7), op(8)),
		script(snap(5), op(6), snap(6)),
		script(snap(5), resume(7)),
		script(snap(5), skip(6), op(7), bye),
		script(snap(5), op(6), skip(6), op(7), bye),
		script(snap(5), skip(7), op(8)),
		script(skip(6), snap(5)),
		script(snap(5), raw(transport.MsgSceneOpVer, "\x00\x00\x00\x00\x00\x00\x06"), op(6)),
		script(snap(5), raw(transport.MsgCameraUpdate, `{"eye":[1,2,3],"fov_y":0.7}`),
			raw(transport.MsgSceneOp, plainOp.String()), op(6), bye),
		script(raw(transport.MsgError, `{"message":"no such session"}`)),
		script(raw(transport.MsgOK, ""), snap(5)),
		script(snap(5), raw(transport.MsgSceneOpVer, "short"), op(6)),
		script(snap(5), raw(transport.MsgSceneSnapshot, "garbage")),
		script(snap(5), raw(transport.MsgResumeOK, `{"version":9}`), op(9), op(12), resume(3), op(4)),
	}
}

// TestStreamScripts pins what the follower makes of the well-formed
// seeds and the skip records: the conformance table's versions, and
// where and how each connection ends — at Bye, at the frame that shows
// an op lost, at a stream the authority closed, which keeps the copy it
// reached, or at a protocol error: a second bootstrap reply, a short
// version prefix or a bare op. A skip record moves the copy's version as
// an op does.
func TestStreamScripts(t *testing.T) {
	const clean, lost, protocol = 0, 1, 2
	want := []struct {
		start, version uint64
		read, end      int
	}{
		{0, 7, 4, clean}, {0, 7, 6, clean}, {6, 8, 4, clean}, {5, 5, 2, lost}, {0, 0, 1, lost},
		{0, 5, 2, lost}, {0, 5, 2, lost}, {0, 5, 2, lost}, {0, 5, 2, lost}, {0, 7, 3, lost},
		{7, 8, 2, lost}, {0, 6, 3, protocol}, {0, 5, 2, protocol},
		{0, 7, 4, clean}, {0, 7, 5, clean}, {0, 5, 2, lost}, {0, 0, 1, lost}, {0, 5, 2, protocol},
		{0, 5, 3, protocol},
	}
	for i, p := range seedScripts()[:len(want)] {
		version, read, err := play(t, p, want[i].start)
		end := clean
		switch {
		case errors.Is(err, ErrLost):
			end = lost
		case err != nil:
			end = protocol
		}
		if version != want[i].version || read != want[i].read || end != want[i].end {
			t.Errorf("script %d: version %d, ended at frame %d with %v; want version %d, frame %d, end %d",
				i, version, read, err, want[i].version, want[i].read, want[i].end)
		}
	}
}

// FuzzFollow feeds the shared loop arbitrary frames from the primary's
// side: it must not panic, must not take the copy backwards once
// bootstrapped (copyTarget), and must send nothing after its hello
// (scripted). The input is a sequence of [type:1][len:2][payload]
// records, each sent as one well-framed message — the transport's own
// framing has its own tests.
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
