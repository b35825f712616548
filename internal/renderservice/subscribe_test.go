package renderservice

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"repro/internal/marshal"
	"repro/internal/scene"
	"repro/internal/transport"
)

// fakeDataService speaks the server side of the subscription protocol
// with scripted behaviour, to exercise the render service's error paths.
func fakeDataService(t *testing.T, script func(conn *transport.Conn)) net.Conn {
	t.Helper()
	serverEnd, clientEnd := net.Pipe()
	go func() {
		conn := transport.NewConn(serverEnd)
		script(conn)
	}()
	t.Cleanup(func() { serverEnd.Close(); clientEnd.Close() })
	return clientEnd
}

func TestSubscribeRefused(t *testing.T) {
	rs := newService("rs")
	conn := fakeDataService(t, func(conn *transport.Conn) {
		if _, _, err := conn.Receive(); err != nil {
			return
		}
		conn.Refuse(errors.New("no such session"))
	})
	err := rs.SubscribeToData(conn, "ghost", nil)
	if err == nil {
		t.Fatal("refused subscription succeeded")
	}
	if rs.SessionCount() != 0 {
		t.Error("refused subscription left a session")
	}
}

func TestSubscribeWrongFirstMessage(t *testing.T) {
	rs := newService("rs")
	conn := fakeDataService(t, func(conn *transport.Conn) {
		if _, _, err := conn.Receive(); err != nil {
			return
		}
		conn.Send(transport.MsgOK, nil) // not a snapshot
	})
	if err := rs.SubscribeToData(conn, "s", nil); err == nil {
		t.Fatal("non-snapshot bootstrap accepted")
	}
}

func TestSubscribeCorruptSnapshot(t *testing.T) {
	rs := newService("rs")
	conn := fakeDataService(t, func(conn *transport.Conn) {
		if _, _, err := conn.Receive(); err != nil {
			return
		}
		conn.Send(transport.MsgSceneSnapshot, []byte("garbage"))
	})
	if err := rs.SubscribeToData(conn, "s", nil); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestSubscribeBadOpTerminates(t *testing.T) {
	rs := newService("rs")
	sc := testScene(t)
	var snap bytes.Buffer
	if err := marshal.WriteScene(&snap, sc); err != nil {
		t.Fatal(err)
	}
	conn := fakeDataService(t, func(conn *transport.Conn) {
		if _, _, err := conn.Receive(); err != nil {
			return
		}
		conn.Send(transport.MsgSceneSnapshot, snap.Bytes())
		// An op referencing a missing node: replica must reject it and
		// the subscription must end with an error (replica divergence is
		// fatal, not silent).
		var op bytes.Buffer
		marshal.WriteOp(&op, &scene.RemoveNodeOp{ID: 9999})
		conn.Send(transport.MsgSceneOp, op.Bytes())
	})
	ready := false
	err := rs.SubscribeToData(conn, "s", func(*Session) { ready = true })
	if err == nil {
		t.Fatal("divergent op accepted")
	}
	if !ready {
		t.Error("bootstrap callback never ran")
	}
	if rs.SessionCount() != 0 {
		t.Error("failed subscription leaked the replica")
	}
}

func TestSubscribeCleanByeEndsNil(t *testing.T) {
	rs := newService("rs")
	sc := testScene(t)
	var snap bytes.Buffer
	if err := marshal.WriteScene(&snap, sc); err != nil {
		t.Fatal(err)
	}
	conn := fakeDataService(t, func(conn *transport.Conn) {
		if _, _, err := conn.Receive(); err != nil {
			return
		}
		conn.Send(transport.MsgSceneSnapshot, snap.Bytes())
		conn.Send(transport.MsgBye, nil)
	})
	if err := rs.SubscribeToData(conn, "s", nil); err != nil {
		t.Fatalf("clean shutdown errored: %v", err)
	}
}

// TestSubscribeBareEOFIsConnectionLost: a stream that ends without an
// explicit Bye is a dead peer, not a clean shutdown — over TCP a killed
// data service still produces EOF, and resilient subscribers must treat
// that as a reconnect signal.
func TestSubscribeBareEOFIsConnectionLost(t *testing.T) {
	rs := newService("rs")
	sc := testScene(t)
	var snap bytes.Buffer
	if err := marshal.WriteScene(&snap, sc); err != nil {
		t.Fatal(err)
	}
	serverEnd, clientEnd := net.Pipe()
	defer clientEnd.Close()
	go func() {
		conn := transport.NewConn(serverEnd)
		if _, _, err := conn.Receive(); err != nil {
			return
		}
		conn.Send(transport.MsgSceneSnapshot, snap.Bytes())
		// Die without Bye: the client sees a bare EOF.
		serverEnd.Close()
	}()
	err := rs.SubscribeToData(clientEnd, "s", nil)
	if !errors.Is(err, ErrConnectionLost) {
		t.Fatalf("bare EOF surfaced as %v, want ErrConnectionLost", err)
	}
}
