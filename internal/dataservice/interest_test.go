package dataservice

import (
	"net"
	"testing"
	"time"

	"repro/internal/marshal"
	"repro/internal/mathx"
	"repro/internal/scene"
	"repro/internal/transport"
)

// interestScene builds:
//
//	root
//	├── groupA ── meshA
//	└── groupB ── meshB
func interestScene(t *testing.T) (*Session, scene.NodeID, scene.NodeID, scene.NodeID, scene.NodeID) {
	t.Helper()
	svc := New(Config{Name: "data"})
	sess, err := svc.CreateSession("s")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(parent scene.NodeID, name string) scene.NodeID {
		id := sess.AllocID()
		if err := sess.ApplyUpdate(&scene.AddNodeOp{
			Parent: parent, ID: id, Name: name, Transform: mathx.Identity(),
		}, ""); err != nil {
			t.Fatal(err)
		}
		return id
	}
	ga := mk(scene.RootID, "groupA")
	ma := mk(ga, "meshA")
	gb := mk(scene.RootID, "groupB")
	mb := mk(gb, "meshB")
	return sess, ga, ma, gb, mb
}

// sentOp is what a commit sent a socket: the op, or nil for a skip
// record, with its version.
type sentOp struct {
	version uint64
	op      scene.Op
}

// subscribeInterest attaches a socket subscriber whose hello names
// interest (nothing: it follows everything), reads its bootstrap and
// returns its conn and what each later commit sends it, read by a
// goroutine.
func subscribeInterest(t *testing.T, sess *Session, name string, interest ...scene.NodeID) (*transport.Conn, <-chan sentOp) {
	t.Helper()
	dsEnd, subEnd := net.Pipe()
	t.Cleanup(func() { subEnd.Close(); dsEnd.Close() })
	go sess.svc.ServeConn(dsEnd)
	conn := transport.NewConn(subEnd)
	hello := transport.Hello{Role: "render-service", Name: name, Session: sess.Name}
	for _, id := range interest {
		hello.Interest = append(hello.Interest, uint64(id))
	}
	if err := conn.SendJSON(transport.MsgHello, hello); err != nil {
		t.Fatal(err)
	}
	for _, want := range []transport.MsgType{transport.MsgSceneSnapshot, transport.MsgCameraUpdate} {
		if mt, _, err := conn.Receive(); err != nil || mt != want {
			t.Fatalf("bootstrap of %s: %v (err %v), want %v", name, mt, err, want)
		}
	}
	ops := make(chan sentOp, 16)
	go func() {
		defer close(ops)
		for {
			mt, payload, err := conn.Receive()
			if err != nil || mt != transport.MsgSceneOpVer {
				return
			}
			version, body, err := transport.UnpackVersioned(payload)
			if err != nil {
				return
			}
			sent := sentOp{version: version}
			if len(body) > 0 {
				if sent.op, err = marshal.DecodeOp(body); err != nil {
					return
				}
			}
			ops <- sent
		}
	}()
	return conn, ops
}

// delivered reads what the session's latest commit sent a subscriber and
// reports whether it was the op: false means a skip record, which must
// still carry the commit's version.
func delivered(t *testing.T, sess *Session, ops <-chan sentOp) bool {
	t.Helper()
	select {
	case sent, ok := <-ops:
		if !ok {
			t.Fatal("the stream ended")
		}
		if sent.version != sess.Version() {
			t.Fatalf("sent version %d, the session is at %d", sent.version, sess.Version())
		}
		return sent.op != nil
	case <-time.After(5 * time.Second):
		t.Fatal("the commit sent nothing")
	}
	return false
}

func commitOp(t *testing.T, sess *Session, op scene.Op) {
	t.Helper()
	if err := sess.ApplyUpdate(op, ""); err != nil {
		t.Fatal(err)
	}
}

func TestInterestFiltersFanOut(t *testing.T) {
	sess, ga, ma, gb, mb := interestScene(t)
	_, subA := subscribeInterest(t, sess, "svcA", ma)
	_, subAll := subscribeInterest(t, sess, "svcAll")

	// A change to meshB: only the unfiltered subscriber is sent it.
	commitOp(t, sess, &scene.SetTransformOp{ID: mb, Transform: mathx.RotateY(0.1)})
	if delivered(t, sess, subA) {
		t.Errorf("svcA received out-of-interest op")
	}
	if !delivered(t, sess, subAll) {
		t.Errorf("svcAll missed op")
	}

	// A change to meshA: both are sent it.
	commitOp(t, sess, &scene.SetTransformOp{ID: ma, Transform: mathx.RotateY(0.1)})
	if !delivered(t, sess, subA) || !delivered(t, sess, subAll) {
		t.Errorf("a subscriber missed svcA's own node's op")
	}

	// A change to the interesting node's ancestor: svcA needs it (its
	// subset moves in the world).
	commitOp(t, sess, &scene.SetTransformOp{ID: ga, Transform: mathx.Translate(mathx.V3(1, 0, 0))})
	if !delivered(t, sess, subA) || !delivered(t, sess, subAll) {
		t.Errorf("a subscriber missed the ancestor op")
	}

	// A change to the other group: filtered.
	commitOp(t, sess, &scene.SetTransformOp{ID: gb, Transform: mathx.RotateX(0.2)})
	if delivered(t, sess, subA) {
		t.Errorf("svcA received other group's op")
	}
	if !delivered(t, sess, subAll) {
		t.Errorf("svcAll missed op")
	}
}

func TestInterestCoversNewChildren(t *testing.T) {
	sess, _, ma, _, _ := interestScene(t)
	_, sub := subscribeInterest(t, sess, "svcA", ma)
	// Adding a child under the interesting node is delivered, and the new
	// child becomes interesting too.
	child := sess.AllocID()
	commitOp(t, sess, &scene.AddNodeOp{Parent: ma, ID: child, Transform: mathx.Identity()})
	if !delivered(t, sess, sub) {
		t.Fatal("add under interest not delivered")
	}
	commitOp(t, sess, &scene.SetTransformOp{ID: child, Transform: mathx.RotateY(0.3)})
	if !delivered(t, sess, sub) {
		t.Errorf("new child's op filtered")
	}
	// Adding elsewhere is filtered.
	other := sess.AllocID()
	commitOp(t, sess, &scene.AddNodeOp{Parent: scene.RootID, ID: other, Transform: mathx.Identity()})
	if delivered(t, sess, sub) {
		t.Errorf("unrelated add delivered")
	}
}

func TestInterestSubtreeIncluded(t *testing.T) {
	sess, ga, ma, _, _ := interestScene(t)
	// Interest in the group covers its existing descendants.
	_, sub := subscribeInterest(t, sess, "svcA", ga)
	commitOp(t, sess, &scene.SetTransformOp{ID: ma, Transform: mathx.RotateY(0.1)})
	if !delivered(t, sess, sub) {
		t.Errorf("descendant op filtered")
	}
}

// TestInterestLifecycle: a hello naming a node the scene does not hold
// is served, and that node covers nothing; a malformed hello is refused;
// and a subscriber's interest leaves with it, so a successor under its
// name that names none follows everything.
func TestInterestLifecycle(t *testing.T) {
	sess, _, ma, _, mb := interestScene(t)
	_, ghost := subscribeInterest(t, sess, "ghost", 9999)
	commitOp(t, sess, &scene.SetTransformOp{ID: ma, Transform: mathx.RotateY(0.1)})
	if delivered(t, sess, ghost) {
		t.Error("an interest node not in the scene covered an op")
	}

	dsEnd, subEnd := net.Pipe()
	defer subEnd.Close()
	defer dsEnd.Close()
	served := make(chan error, 1)
	go func() { served <- sess.svc.ServeConn(dsEnd) }()
	bad := `{"role":"render-service","name":"bad","session":"s","interest":"meshA"}`
	if err := transport.NewConn(subEnd).Send(transport.MsgHello, []byte(bad)); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err == nil {
		t.Error("a malformed interest was accepted")
	}

	conn, sub := subscribeInterest(t, sess, "svcA", ma)
	commitOp(t, sess, &scene.SetTransformOp{ID: mb, Transform: mathx.RotateY(0.1)})
	if delivered(t, sess, sub) {
		t.Error("svcA received out-of-interest op")
	}
	if delivered(t, sess, ghost) {
		t.Error("an interest node not in the scene covered an op")
	}
	if err := conn.Send(transport.MsgBye, nil); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); len(sess.SubscriberNames()) != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("svcA still attached after its bye: %v", sess.SubscriberNames())
		}
	}
	_, successor := subscribeInterest(t, sess, "svcA")
	commitOp(t, sess, &scene.SetTransformOp{ID: mb, Transform: mathx.RotateY(0.2)})
	if !delivered(t, sess, successor) {
		t.Error("a successor that names no interest had its predecessor's filter")
	}
}
