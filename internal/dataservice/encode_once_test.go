package dataservice

import (
	"bytes"
	"net"
	"testing"

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

// TestCommitEncodesOnce is the "encoded once" promise: a commit with an
// audit trail, a journal and subscribers of every kind marshals its op
// one time. The in-process subscribers are handed one backing array, the
// journal record and the audit record end in those bytes, a socket gets
// them behind the version and an interest-filtered socket bare.
func TestCommitEncodesOnce(t *testing.T) {
	svc := New(Config{Name: "data"})
	sess, err := svc.CreateSession("s")
	if err != nil {
		t.Fatal(err)
	}
	id := sess.AllocID()
	if err := sess.ApplyUpdate(&scene.AddNodeOp{Parent: scene.RootID, ID: id, Transform: mathx.Identity()}, ""); err != nil {
		t.Fatal(err)
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
	// Two sockets, one of them interest-filtered, read by goroutines.
	type message struct {
		t       transport.MsgType
		payload []byte
	}
	received := map[string]chan message{"versioned": make(chan message, 2), "filtered": make(chan message, 2)}
	for name, ch := range received {
		near, far := net.Pipe()
		defer near.Close()
		defer far.Close()
		if _, err := sess.Subscribe(name, &connSubscriber{conn: transport.NewConn(near), sess: sess}); err != nil {
			t.Fatal(err)
		}
		go func() {
			conn := transport.NewConn(far)
			for {
				mt, payload, err := conn.Receive()
				if err != nil {
					return
				}
				ch <- message{mt, payload}
			}
		}()
	}
	if err := sess.SetInterest("filtered", []scene.NodeID{id}); err != nil {
		t.Fatal(err)
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
		if m := <-received["versioned"]; m.t != transport.MsgSceneOpVer || !bytes.Equal(m.payload, transport.PackVersioned(sess.Version(), want)) {
			t.Errorf("op %d: the socket received %s, %d bytes", i, m.t, len(m.payload))
		}
		if m := <-received["filtered"]; m.t != transport.MsgSceneOp || !bytes.Equal(m.payload, want) {
			t.Errorf("op %d: the filtered socket received %s, %d bytes", i, m.t, len(m.payload))
		}
	}
	if err := sess.StopJournal(); err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Recover(store)
	if err != nil || rec.Torn != nil || len(rec.Ops) != len(ops) {
		t.Fatalf("journal recovered %d ops, torn %v, err %v", len(rec.Ops), rec.Torn, err)
	}
}

// TestSocketCameraIsNeverStale: a socket's camera message carries the
// session's camera at the moment it is written, not the one its sender
// read earlier. ServeConn's camera after the bootstrap used to be able
// to land behind a newer SetCamera fan-out and leave the replica on the
// old view for good.
func TestSocketCameraIsNeverStale(t *testing.T) {
	svc := New(Config{Name: "data"})
	sess, err := svc.CreateSession("s")
	if err != nil {
		t.Fatal(err)
	}
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	sub := &connSubscriber{conn: transport.NewConn(near), sess: sess}

	stale := sess.Camera()
	fresh := stale
	fresh.Eye[0] += 5
	if err := sess.SetCamera(fresh, ""); err != nil {
		t.Fatal(err)
	}
	go sub.SendCamera(stale)
	mt, payload, err := transport.NewConn(far).Receive()
	if err != nil || mt != transport.MsgCameraUpdate {
		t.Fatalf("received %s, %v", mt, err)
	}
	var got transport.CameraState
	if err := transport.DecodeJSON(payload, &got); err != nil {
		t.Fatal(err)
	}
	if got != fresh {
		t.Errorf("socket carried eye %v, session's camera is at %v", got.Eye, fresh.Eye)
	}
}
