package dataservice_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/dataservice"
	"repro/internal/follow"
	"repro/internal/marshal"
	"repro/internal/mathx"
	"repro/internal/scene"
	"repro/internal/transport"
)

// addNode commits a group node under parent and returns its ID.
func addNode(t *testing.T, sess *dataservice.Session, parent scene.NodeID, name string) scene.NodeID {
	t.Helper()
	id := sess.AllocID()
	if err := sess.ApplyUpdate(&scene.AddNodeOp{Parent: parent, ID: id, Name: name, Transform: mathx.Identity()}, ""); err != nil {
		t.Fatal(err)
	}
	return id
}

// waitVersion waits for the copy to reach the authority's version.
func waitVersion(t *testing.T, cp *sceneCopy, sess *dataservice.Session) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); cp.Version() != sess.Version(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("copy stuck at version %d, authority at %d", cp.Version(), sess.Version())
		}
	}
}

// part encodes the subtree under id with the ancestors that orient it.
func part(t *testing.T, sc *scene.Scene, id scene.NodeID) []byte {
	t.Helper()
	var ids []scene.NodeID
	var walk func(n *scene.Node)
	walk = func(n *scene.Node) {
		ids = append(ids, n.ID)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(sc.Node(id))
	sub, err := sc.ExtractSubset(ids)
	if err != nil {
		t.Fatal(err)
	}
	b, err := marshal.AppendScene(nil, sub)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestInterestOverSocket drives §3.2.5's interest over the wire protocol
// and the follower: a copy whose hello names one subtree is sent the ops
// touching it and a skip record for every other, so it ends at the
// authority's version with that subtree current and the rest as its
// bootstrap left it.
func TestInterestOverSocket(t *testing.T) {
	svc := dataservice.New(dataservice.Config{Name: "data"})
	sess, err := svc.CreateSession("s")
	if err != nil {
		t.Fatal(err)
	}
	mine := addNode(t, sess, scene.RootID, "mine")
	other := addNode(t, sess, scene.RootID, "other")

	dsEnd, subEnd := net.Pipe()
	defer dsEnd.Close()
	go svc.ServeConn(dsEnd)
	cp := &sceneCopy{}
	st := &follow.Stream{Conn: transport.NewConn(subEnd), Target: cp,
		Hello: transport.Hello{Role: "render-service", Name: "rs", Session: "s", Interest: []uint64{uint64(mine)}}}
	done := make(chan error, 1)
	go func() { _, err := st.Run(context.Background()); done <- err }()
	waitVersion(t, cp, sess)

	for _, op := range []scene.Op{
		&scene.SetTransformOp{ID: other, Transform: mathx.RotateY(0.1)},
		&scene.SetTransformOp{ID: mine, Transform: mathx.RotateY(0.2)},
		&scene.SetNameOp{ID: other, Name: "renamed"},
	} {
		if err := sess.ApplyUpdate(op, ""); err != nil {
			t.Fatal(err)
		}
	}
	waitVersion(t, cp, sess)
	subEnd.Close()
	if err := <-done; !errors.Is(err, follow.ErrLost) {
		t.Fatalf("the stream ended with %v, want the closed pipe", err)
	}
	authority := sess.Snapshot()
	if !bytes.Equal(part(t, cp.sc, mine), part(t, authority, mine)) {
		t.Error("the copy's subtree of interest differs from the authority's")
	}
	if n := cp.sc.Node(other); n.Name != "other" || n.Transform != mathx.Identity() {
		t.Error("an op outside the interest reached the copy")
	}
}

// TestFilteredRedialConverges: a follower whose hello names an interest
// set {a} redials after its link dies, while committers move a and a node
// b outside the set, and a child of a is removed while the link is down;
// the committers move both again once the redial is served.
// Every op reaches the copy, as itself or as a skip record, so its version
// counts the authority's and the redial's hello says where it is. The
// authority answers a filtered hello with a snapshot: it could filter the
// gap only by the set as it stands now, which no longer covers the
// removed child, and the copy would keep it. The copy ends at the
// authority's version with a's subtree and its ancestors equal to the
// authority's and the removed child gone.
func TestFilteredRedialConverges(t *testing.T) {
	svc := dataservice.New(dataservice.Config{Name: "data"})
	sess, err := svc.CreateSession("s")
	if err != nil {
		t.Fatal(err)
	}
	a := addNode(t, sess, scene.RootID, "a")
	removed := addNode(t, sess, a, "a1")
	addNode(t, sess, a, "a2")
	b := addNode(t, sess, scene.RootID, "b")

	killed := &killAfter{n: 50, failed: make(chan struct{})}
	f := followKilled(t, svc, killed, transport.Hello{Role: "render-service", Name: "copy", Session: "s", Interest: []uint64{uint64(a)}})
	cp := f.cp
	waitVersion(t, cp, sess)

	var wg sync.WaitGroup
	commit := func(op scene.Op) {
		if err := sess.ApplyUpdate(op, ""); err != nil {
			t.Error(err)
		}
	}
	// The failing write holds the flusher until the removal has been
	// committed behind it.
	killed.behind = func() {
		v := sess.Version()
		wg.Add(1)
		go func() {
			defer wg.Done()
			commit(&scene.RemoveNodeOp{ID: removed})
		}()
		for deadline := time.Now().Add(10 * time.Second); sess.Version() == v && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	move := func(from, to int) {
		for g, node := range []scene.NodeID{a, b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := from; i < to; i++ {
					commit(&scene.SetTransformOp{ID: node, Transform: mathx.Translate(mathx.V3(float64(i), float64(g), 0))})
				}
			}()
		}
		wg.Wait()
	}
	move(0, 200)
	select {
	case <-killed.failed:
	case <-time.After(10 * time.Second):
		t.Fatal("the pipe never failed a write")
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if snapshots, resumes := sess.BootstrapStats(); snapshots+resumes >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the follower never redialled")
		}
	}
	move(200, 250)
	waitVersion(t, cp, sess)

	cp.mu.Lock()
	got, stale := part(t, cp.sc, a), cp.sc.Node(removed) != nil
	cp.mu.Unlock()
	if stale {
		t.Error("the copy kept the child removed while its link was down")
	}
	if !bytes.Equal(got, part(t, sess.Snapshot(), a)) {
		t.Error("the copy's subtree of interest differs from the authority's at the same version")
	}
	snapshots, resumes := sess.BootstrapStats()
	if dials := f.dialled(); dials < 2 || snapshots != uint64(dials) || resumes != 0 {
		t.Errorf("%d dials served %d snapshots and %d resumes; want a snapshot for the bootstrap and for every redial", dials, snapshots, resumes)
	}
}
