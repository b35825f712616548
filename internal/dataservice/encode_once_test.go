package dataservice

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dataservice/wal"
	"repro/internal/geom/genmodel"
	"repro/internal/marshal"
	"repro/internal/mathx"
	"repro/internal/scene"
	"repro/internal/transport"
)

// wireSub records where each update's wire bytes live and what they were.
type wireSub struct {
	at   []*byte
	wire [][]byte
}

func (w *wireSub) SendUpdate(u Update) error {
	w.at = append(w.at, &u.Wire[0])
	w.wire = append(w.wire, bytes.Clone(u.Wire))
	return nil
}

func (w *wireSub) SendCamera(transport.CameraState) error { return nil }

// socketProbe is a socket subscriber that also keeps the versioned
// payload each update carried to its socket.
type socketProbe struct {
	*connSubscriber
	sent [][]byte
}

func (p *socketProbe) SendUpdate(u Update) error {
	err := p.connSubscriber.SendUpdate(u)
	p.sent = append(p.sent, u.versioned())
	return err
}

// TestCommitEncodesOnce is the "encoded once, packed once" promise: a
// commit with an audit trail, a journal and subscribers of every kind
// marshals its op one time. The in-process subscribers are handed one
// backing array, the journal record and the audit record end in those
// bytes, the versioned sockets send one backing array holding them
// behind the version, and a socket whose interest the ops are outside
// sends each as a skip record, the version alone. A socket's SendUpdate
// allocates nothing beyond the Send it makes, so it cannot be packing a
// copy of its own.
func TestCommitEncodesOnce(t *testing.T) {
	svc := New(Config{Name: "data"})
	sess, err := svc.CreateSession("s")
	if err != nil {
		t.Fatal(err)
	}
	id, other := sess.AllocID(), sess.AllocID()
	for _, node := range []scene.NodeID{id, other} {
		if err := sess.ApplyUpdate(&scene.AddNodeOp{Parent: scene.RootID, ID: node, Transform: mathx.Identity()}, ""); err != nil {
			t.Fatal(err)
		}
	}
	store := wal.NewMemStore()
	if err := sess.StartJournal(store, 0); err != nil {
		t.Fatal(err)
	}
	var audit bytes.Buffer
	if err := sess.StartRecording(&audit); err != nil {
		t.Fatal(err)
	}
	subs := []*wireSub{{}, {}, {}}
	for i, sub := range subs {
		if _, err := sess.Subscribe(string(rune('a'+i)), sub); err != nil {
			t.Fatal(err)
		}
	}
	// Three sockets read by goroutines, one of them with an interest the
	// ops are outside; its bootstrap is not what this test reads.
	type message struct {
		t       transport.MsgType
		payload []byte
	}
	received := map[string]chan message{"versioned-1": make(chan message, 2), "versioned-2": make(chan message, 2), "filtered": make(chan message, 2)}
	probes := map[string]*socketProbe{}
	for name, ch := range received {
		near, far := net.Pipe()
		defer near.Close()
		defer far.Close()
		go func() {
			conn := transport.NewConn(far)
			for {
				mt, payload, err := conn.Receive()
				if err != nil {
					return
				}
				if mt == transport.MsgSceneOpVer {
					ch <- message{mt, payload}
				}
			}
		}()
		socket := &connSubscriber{conn: transport.NewConn(near)}
		if name == "filtered" {
			sent, _, err := sess.queueBase(&outbox{name: name, sub: socket, socket: near}, 0, []uint64{uint64(other)})
			if err == nil {
				err = waitAll(sent)
			}
			if err != nil {
				t.Fatal(err)
			}
			continue
		}
		probes[name] = &socketProbe{connSubscriber: socket}
		if _, err := sess.Subscribe(name, probes[name]); err != nil {
			t.Fatal(err)
		}
	}

	ops := []scene.Op{
		&scene.SetPayloadOp{ID: id, Payload: &scene.MeshPayload{Mesh: genmodel.Sphere(mathx.Vec3{}, 1, 12, 8)}},
		&scene.SetTransformOp{ID: id, Transform: mathx.RotateY(0.3)},
	}
	for i, op := range ops {
		if err := sess.ApplyUpdate(op, ""); err != nil {
			t.Fatal(err)
		}
		want, err := marshal.AppendOp(nil, op)
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range subs {
			if sub.at[i] != subs[0].at[i] {
				t.Errorf("op %d: subscribers were handed different arrays", i)
			}
			if !bytes.Equal(sub.wire[i], want) {
				t.Errorf("op %d: a subscriber's bytes are not the op's encoding", i)
			}
		}
		if !bytes.HasSuffix(store.Bytes(), want) {
			t.Errorf("op %d: the journal record's body is not the op's encoding", i)
		}
		if !bytes.HasSuffix(audit.Bytes(), want) {
			t.Errorf("op %d: the audit record's body is not the op's encoding", i)
		}
		packed := transport.PackVersioned(sess.Version(), want)
		for _, name := range []string{"versioned-1", "versioned-2"} {
			if m := <-received[name]; m.t != transport.MsgSceneOpVer || !bytes.Equal(m.payload, packed) {
				t.Errorf("op %d: socket %s received %s, %d bytes", i, name, m.t, len(m.payload))
			}
			if sent := probes[name].sent[i]; !bytes.Equal(sent, packed) {
				t.Errorf("op %d: socket %s was sent bytes that are not the versioned op", i, name)
			}
		}
		if &probes["versioned-1"].sent[i][0] != &probes["versioned-2"].sent[i][0] {
			t.Errorf("op %d: the versioned sockets were sent different arrays", i)
		}
		if m := <-received["filtered"]; !bytes.Equal(m.payload, transport.PackVersioned(sess.Version(), nil)) {
			t.Errorf("op %d: the filtered socket received %d bytes, want the 8-byte skip record", i, len(m.payload))
		}
	}
	if err := sess.StopJournal(); err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Recover(store)
	if err != nil || rec.Torn != nil || len(rec.Ops) != len(ops) {
		t.Fatalf("journal recovered %d ops, torn %v, err %v", len(rec.Ops), rec.Torn, err)
	}

	near, far := net.Pipe()
	defer near.Close()
	go io.Copy(io.Discard, far)
	sock := &connSubscriber{conn: transport.NewConn(near)}
	u := Update{Version: sess.Version(), Wire: probes["versioned-1"].sent[1][8:], packed: new(packedOp)}
	payload := u.versioned()
	send := testing.AllocsPerRun(20, func() { sock.conn.Send(transport.MsgSceneOpVer, payload) })
	update := testing.AllocsPerRun(20, func() { sock.SendUpdate(u) })
	if update > send {
		t.Errorf("SendUpdate allocates %v times, the Send it makes %v", update, send)
	}
}

// TestSocketCameraIsNeverStale: a socket that subscribes while the
// shared camera keeps changing never carries a camera older than one it
// has already carried, and ends on the session's camera. The camera
// after the bootstrap used to be able to land behind a newer SetCamera
// fan-out and leave the replica on the old view for good; the outbox
// now queues both in the order the session took them.
func TestSocketCameraIsNeverStale(t *testing.T) {
	svc := New(Config{Name: "data"})
	sess, err := svc.CreateSession("s")
	if err != nil {
		t.Fatal(err)
	}
	const moves = 200
	camera := func(i int) transport.CameraState {
		cam := sess.Camera()
		cam.Eye[0] = float64(i)
		return cam
	}
	if err := sess.SetCamera(camera(0), ""); err != nil {
		t.Fatal(err)
	}
	moved := make(chan struct{})
	go func() {
		defer close(moved)
		for i := 1; i <= moves; i++ {
			_ = sess.SetCamera(camera(i), "") // a fan-out error is the socket closing at the end
		}
	}()
	near, far := net.Pipe()
	defer near.Close()
	served := make(chan struct{})
	go func() { svc.ServeConn(near); close(served) }()
	conn := transport.NewConn(far)
	if err := conn.SendJSON(transport.MsgHello, transport.Hello{Role: "render-service", Name: "r", Session: "s"}); err != nil {
		t.Fatal(err)
	}
	last := -1.0
	for last < moves {
		mt, payload, err := conn.Receive()
		if err != nil {
			t.Fatalf("stream ended at camera %v: %v", last, err)
		}
		if mt != transport.MsgCameraUpdate {
			continue
		}
		var got transport.CameraState
		if err := transport.DecodeJSON(payload, &got); err != nil {
			t.Fatal(err)
		}
		if got.Eye[0] < last {
			t.Fatalf("socket carried camera %v after camera %v", got.Eye[0], last)
		}
		last = got.Eye[0]
	}
	<-moved
	far.Close()
	<-served
}

// TestPackedOnceAcrossFlushers: several goroutines commit while two
// sockets follow, so one commit's packed payload can be sent to the two
// sockets by two flushers at once. Each socket must carry every version
// once, in order, with an op that decodes. Run it under -race.
func TestPackedOnceAcrossFlushers(t *testing.T) {
	sess, err := New(Config{Name: "data"}).CreateSession("s")
	if err != nil {
		t.Fatal(err)
	}
	const committers, perCommitter = 3, 100
	read := make(chan error, 2) // one send per reader
	for _, name := range []string{"a", "b"} {
		near, far := net.Pipe()
		defer near.Close()
		if _, err := sess.Subscribe(name, &connSubscriber{conn: transport.NewConn(near)}); err != nil {
			t.Fatal(err)
		}
		go func() {
			defer far.Close()
			conn := transport.NewConn(far)
			for want := uint64(1); want <= committers*perCommitter; want++ {
				mt, payload, err := conn.Receive()
				if err != nil {
					read <- err
					return
				}
				version, body, err := transport.UnpackVersioned(payload)
				if mt != transport.MsgSceneOpVer || err != nil || version != want {
					read <- fmt.Errorf("received %s version %d (%v), want version %d", mt, version, err, want)
					return
				}
				if _, err := marshal.DecodeOp(body); err != nil {
					read <- err
					return
				}
			}
			read <- nil
		}()
	}
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCommitter; i++ {
				if err := sess.ApplyUpdate(&scene.SetNameOp{ID: scene.RootID, Name: fmt.Sprint(i)}, ""); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-read; err != nil {
			t.Error(err)
		}
	}
}

// TestSentBootstrapIsReleased: once a socket's bootstrap snapshot has
// been sent, the subscriber's outbox no longer reaches it, so the scene
// clone and its encoding are not kept for the subscription's lifetime.
func TestSentBootstrapIsReleased(t *testing.T) {
	sess, err := New(Config{Name: "data"}).CreateSessionFromMesh("s", "m", genmodel.Sphere(mathx.Vec3{}, 1, 12, 8))
	if err != nil {
		t.Fatal(err)
	}
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	go io.Copy(io.Discard, far)
	ob := &outbox{name: "r", sub: &connSubscriber{transport.NewConn(near)}, socket: near}
	defer runtime.KeepAlive(ob) // the subscription stays attached
	sent, _, err := sess.queueBase(ob, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	runtime.SetFinalizer(sent[0].base.scene, func(*scene.Scene) { close(released) })
	if err := waitAll(sent); err != nil {
		t.Fatal(err)
	}
	sent = nil
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-released:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the sent bootstrap's scene is still reachable")
}

// BenchmarkCommitReshape times the commit path on its own: one
// SetPayloadOp carrying a 6 k-triangle mesh (an eighth of the 50 k
// Elle, the size of the reshape bench/'s collab_edit commits) applied
// to a session that journals to a wal.MemStore and fans out to two
// versioned subscribers on loopback TCP sockets, whose far ends discard
// what they read. Run it with -benchmem.
func BenchmarkCommitReshape(b *testing.B) {
	piece := genmodel.Elle(genmodel.PaperElleTriangles).SplitSpatially(8)[0]
	sess, err := New(Config{Name: "data"}).CreateSessionFromMesh("s", "part", piece)
	if err != nil {
		b.Fatal(err)
	}
	var id scene.NodeID
	sess.Scene(func(sc *scene.Scene) { id = sc.PayloadIDs()[0] })
	// Compaction keeps the in-memory journal to a few dozen records.
	if err := sess.StartJournal(wal.NewMemStore(), 32); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	for _, name := range []string{"socket-1", "socket-2"} {
		far, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer far.Close()
		near, err := ln.Accept()
		if err != nil {
			b.Fatal(err)
		}
		defer near.Close()
		go io.Copy(io.Discard, far)
		if _, err := sess.Subscribe(name, &connSubscriber{conn: transport.NewConn(near)}); err != nil {
			b.Fatal(err)
		}
	}
	mesh := piece.Clone()
	mesh.SetUniformColor(mathx.V3(0.8, 0.3, 0.2))
	op := &scene.SetPayloadOp{ID: id, Payload: &scene.MeshPayload{Mesh: mesh}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.ApplyUpdate(op, ""); err != nil {
			b.Fatal(err)
		}
	}
}
