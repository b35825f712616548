package dataservice_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataservice"
	"repro/internal/dataservice/failover"
	"repro/internal/device"
	"repro/internal/follow"
	"repro/internal/geom/genmodel"
	"repro/internal/marshal"
	"repro/internal/mathx"
	"repro/internal/renderservice"
	"repro/internal/retry"
	"repro/internal/scene"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// The op-stream follower conformance table: every row is a scripted
// primary, and every socket follower built on internal/follow — the
// render service's replica, the hot standby — must end at the same
// version, having ended the same connections itself and resumed at the
// same version. The in-process mirror plays each row against a real
// primary's fan-out, which sends only in order: it must end at the same
// version.

// base is the primary's version when each script starts.
const base = 5

// frame is one message of a scripted primary, or the link dropping.
type frame struct {
	kind byte // 's' snapshot at v, 'r' resume-ok through v, 'o' the op producing v, 'x' the cut
	v    uint64
}

func snap(v uint64) frame   { return frame{'s', v} }
func resume(v uint64) frame { return frame{'r', v} }
func op(v uint64) frame     { return frame{'o', v} }
func cut() frame            { return frame{'x', 0} }

// opFor builds the op that produces version v: it hangs a node under
// the one op v-1 added, so an op applied twice or out of order fails and
// ends the stream with an error instead of passing unnoticed.
func opFor(v uint64) scene.Op {
	parent := scene.NodeID(1000 + v - 1)
	if v == base+1 {
		parent = scene.RootID
	}
	return &scene.AddNodeOp{Parent: parent, ID: scene.NodeID(1000 + v), Name: fmt.Sprintf("v%d", v), Transform: mathx.Identity()}
}

// sceneAt is the primary's scene at version v.
func sceneAt(v uint64) *scene.Scene {
	sc := scene.New()
	for u := uint64(base + 1); u <= v; u++ {
		if err := sc.ApplyOp(opFor(u)); err != nil {
			panic(err) // the chain above applies by construction
		}
	}
	sc.Version = v
	return sc
}

// wire encodes f as the primary puts it on a socket.
func (f frame) wire() (transport.MsgType, []byte) {
	var buf bytes.Buffer
	var err error
	switch f.kind {
	case 's':
		err = marshal.WriteScene(&buf, sceneAt(f.v))
	case 'r':
		return transport.MsgResumeOK, []byte(fmt.Sprintf(`{"version":%d}`, f.v))
	default:
		err = marshal.WriteOp(&buf, opFor(f.v))
	}
	if err != nil {
		panic(err) // encoding into memory does not fail
	}
	if f.kind == 's' {
		return transport.MsgSceneSnapshot, buf.Bytes()
	}
	return transport.MsgSceneOpVer, transport.PackVersioned(f.v, buf.Bytes())
}

type conformanceRow struct {
	name string
	// conns is one script per connection. The last ends in Bye, one that
	// ends in cut() in a dropped link, and any other is left open: the
	// follower must end it, or the row never finishes.
	conns [][]frame
	want  uint64 // the copy's final version
	// since is the SinceVersion a socket follower's last hello must carry.
	since uint64
	// lost rows end the socket follower's stream as follow.ErrLost before
	// it has a copy: an op came ahead of the bootstrap reply. The mirror's
	// primary queues the base ahead of every op, and it ends at want.
	lost bool
}

// The rows that script a delivery an ordered authority does not make —
// an op overtaking the bootstrap reply or the ops before it — assert
// what a follower makes of it: an op before the bootstrap reply ends the
// stream, and an op out of turn after it ends the connection, and the
// next hello resumes at the copy.
var conformance = []conformanceRow{
	{name: "in order",
		conns: [][]frame{{snap(5), op(6), op(7)}}, want: 7},
	{name: "duplicates",
		conns: [][]frame{{snap(5), op(6), op(6), op(7), op(6)}}, want: 7},
	{name: "resume-ok and the gap",
		conns: [][]frame{{snap(5), op(6), cut()}, {resume(8), op(7), op(8)}}, want: 8, since: 6},
	{name: "fan-out overtakes the resume replay",
		conns: [][]frame{{snap(5), cut()}, {resume(7), op(8), op(6), op(7)}, {resume(8), op(6), op(7), op(8)}}, want: 8, since: 5},
	{name: "op before its bootstrap snapshot",
		conns: [][]frame{{op(6), snap(5)}}, want: 6, lost: true},
	{name: "ahead, then filled in",
		conns: [][]frame{{snap(5), op(7), op(6)}, {resume(7), op(6), op(7)}}, want: 7, since: 5},
	{name: "gap followed by further ops",
		conns: [][]frame{{snap(5), op(7), op(8), op(9), op(10)}, {resume(10), op(6), op(7), op(8), op(9), op(10)}}, want: 10, since: 5},
	// The first connections of these two rows are what an authority with
	// an in-stream resync sent, a snapshot after the bootstrap among it.
	// The follower ends each at the op ahead of its copy, before the
	// snapshot, and resumes.
	{name: "op racing the resync snapshot",
		conns: [][]frame{{snap(5), op(7), op(9), snap(8), op(9), op(10)}, {resume(10), op(6), op(7), op(8), op(9), op(10)}}, want: 10, since: 5},
	{name: "resync answer older than the copy",
		conns: [][]frame{{snap(5), op(7), op(6), op(7), op(8), snap(7), op(8)}, {resume(8), op(6), op(7), op(8)}}, want: 8, since: 5},
}

// scriptedPrimary plays script on one end of a net.Pipe and returns the
// other; since delivers the SinceVersion of the follower's hello once the
// pipe is closed. net.Pipe is unbuffered, so a frame is sent only once
// the follower has read the one before: the follower sees the script in
// order.
func scriptedPrimary(script []frame, last bool) (follower net.Conn, since <-chan uint64) {
	server, client := net.Pipe()
	conn := transport.NewConn(server)
	sincec := make(chan uint64, 1) // the reader's one send never blocks
	go func() {
		var since uint64
		for {
			mt, payload, err := conn.Receive()
			if err != nil {
				sincec <- since
				return
			}
			if mt == transport.MsgHello {
				var hello transport.Hello
				_ = transport.DecodeJSON(payload, &hello)
				since = hello.SinceVersion
			}
		}
	}()
	go func() {
		for _, f := range script {
			if f.kind == 'x' {
				server.Close()
				return
			}
			if conn.Send(f.wire()) != nil {
				return
			}
		}
		if last {
			_ = conn.Send(transport.MsgBye, nil)
		}
	}()
	return client, sincec
}

// socketFollower runs one kind of socket follower over the connections
// dial hands out, returning its copy's version after the last one's Bye.
type socketFollower func(t *testing.T, dial func() net.Conn, conns int) (version uint64, err error)

func renderFollower(t *testing.T, dial func() net.Conn, conns int) (uint64, error) {
	rs := renderservice.New(renderservice.Config{Name: "rs", Device: device.CentrinoLaptop, Workers: 1})
	var replica *renderservice.Session
	err := rs.SubscribeToDataResilient(context.Background(),
		func() (io.ReadWriteCloser, error) { return dial(), nil }, "s",
		renderservice.SubscribeOpts{Retry: retry.Policy{MaxAttempts: conns, BaseDelay: time.Millisecond}},
		func(sess *renderservice.Session) { replica = sess })
	if err != nil {
		return 0, err
	}
	if replica == nil {
		return 0, errors.New("subscription ended without a bootstrap")
	}
	return replica.Version(), nil
}

func standbyFollower(t *testing.T, dial func() net.Conn, conns int) (uint64, error) {
	st := &failover.Standby{Service: dataservice.New(dataservice.Config{Name: "standby-svc"}), SessionName: "s", Name: "standby"}
	for i := 0; i < conns; i++ {
		conn := dial()
		err := st.Run(context.Background(), conn)
		conn.Close()
		if i == conns-1 && err != nil {
			return 0, err
		}
	}
	return st.Applied(), nil
}

// mirrorFollower plays row against the in-process mirror of a real
// primary, whose fan-out sends only in order. A connection is one
// attach, at its first snapshot or resume-ok, and a dropped link a
// Detach with the backup keeping its copy. An op frame is committed on
// the primary, with any version below it not yet committed: before the
// attach the mirror's base covers it, after it the fan-out delivers it.
// Resume-ok's version is committed while the mirror is detached, for the
// primary to replay. What an ordered fan-out never sends — an op again —
// and the cut are skipped.
func mirrorFollower(t *testing.T, row conformanceRow) (uint64, error) {
	primary, err := dataservice.New(dataservice.Config{Name: "primary"}).CreateSession("s")
	if err != nil {
		return 0, err
	}
	for primary.Version() < base {
		if err := primary.ApplyUpdate(&scene.SetNameOp{ID: scene.RootID, Name: "root"}, ""); err != nil {
			return 0, err
		}
	}
	commitThrough := func(v uint64) error {
		for primary.Version() < v {
			if err := primary.ApplyUpdate(opFor(primary.Version()+1), ""); err != nil {
				return err
			}
		}
		return nil
	}
	backupSvc := dataservice.New(dataservice.Config{Name: "backup"})
	var m *dataservice.Mirror
	for _, script := range row.conns {
		attached := false
		for _, f := range script {
			if f.kind == 'o' || f.kind == 'r' && !attached {
				err = commitThrough(f.v)
			}
			if err == nil && !attached && (f.kind == 's' || f.kind == 'r') {
				var resumed bool
				if m, resumed, err = dataservice.MirrorSessionSince(primary, backupSvc); err == nil && resumed != (f.kind == 'r') {
					err = fmt.Errorf("bootstrap resumed = %t on a %q frame", resumed, f.kind)
				}
				attached = true
			}
			if err != nil {
				return 0, err
			}
		}
		m.Detach()
	}
	backup, _ := backupSvc.Session("s")
	return backup.Version(), m.Err()
}

func TestFollowerConformance(t *testing.T) {
	sockets := []struct {
		name   string
		follow socketFollower
	}{{"render service", renderFollower}, {"standby", standbyFollower}}
	for _, row := range conformance {
		for _, sf := range sockets {
			t.Run(row.name+"/"+sf.name, func(t *testing.T) {
				var sinces []<-chan uint64
				var clients []net.Conn
				dial := func() net.Conn {
					i := len(sinces)
					if i >= len(row.conns) {
						t.Errorf("follower dialled %d times, script has %d connections", i+1, len(row.conns))
						i = len(row.conns) - 1
					}
					client, since := scriptedPrimary(row.conns[i], i == len(row.conns)-1)
					sinces, clients = append(sinces, since), append(clients, client)
					return client
				}
				type result struct {
					version uint64
					err     error
				}
				done := make(chan result, 1) // the follower's one send never blocks
				go func() {
					v, err := sf.follow(t, dial, len(row.conns))
					done <- result{v, err}
				}()
				var got result
				select {
				case got = <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("follower never finished the script: is a connection it should end still open?")
				}
				switch {
				case row.lost && !errors.Is(got.err, follow.ErrLost):
					t.Fatalf("follower ended with %v, want follow.ErrLost", got.err)
				case !row.lost && got.err != nil:
					t.Fatalf("follower failed: %v", got.err)
				case !row.lost && got.version != row.want:
					t.Errorf("copy ended at version %d, want %d", got.version, row.want)
				}
				var since uint64
				for i, c := range sinces {
					clients[i].Close()
					since = <-c
				}
				if since != row.since {
					t.Errorf("last hello carried SinceVersion %d, want %d", since, row.since)
				}
			})
		}
		t.Run(row.name+"/mirror", func(t *testing.T) {
			got, err := mirrorFollower(t, row)
			if err != nil {
				t.Fatalf("mirror failed: %v", err)
			}
			if got != row.want {
				t.Errorf("copy ended at version %d, want %d", got, row.want)
			}
		})
	}
}

// committers commit to one node of a session from several goroutines
// as fast as they can, until halted. Pausing them waits for none of
// their commits: a commit in flight may be waiting for a subscriber to
// read. Only the test's goroutine pauses, resumes and halts them.
type committers struct {
	gate   sync.RWMutex // held to pause them
	paused bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

func startCommitters(sess *dataservice.Session, id scene.NodeID, n int) *committers {
	c := &committers{stop: make(chan struct{})}
	for g := 0; g < n; g++ {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			for i := 0; ; i++ {
				select {
				case <-c.stop:
					return
				default:
				}
				// Pass the gate without holding it through the commit.
				c.gate.RLock()
				c.gate.RUnlock()
				// Fan-out errors are subscribers leaving mid-send, not a failed commit.
				_ = sess.ApplyUpdate(&scene.SetTransformOp{ID: id, Transform: mathx.Translate(mathx.V3(float64(i), 0, 0))}, "")
			}
		}()
	}
	return c
}

func (c *committers) pause() {
	if !c.paused {
		c.gate.Lock()
		c.paused = true
	}
}

func (c *committers) resume() {
	if c.paused {
		c.gate.Unlock()
		c.paused = false
	}
}

func (c *committers) halt() {
	close(c.stop)
	c.resume()
	c.wg.Wait()
}

// TestSubscribeWhileCommitting: subscribers join a session whose mesh
// takes milliseconds to encode while three goroutines commit to it as
// fast as they can. Each subscriber's stream must be in commit order —
// its bootstrap reply first, then every op the version after the one
// before — whatever the commits overtake: the snapshot's encoding, a
// resume's replay.
func TestSubscribeWhileCommitting(t *testing.T) {
	for _, input := range []struct {
		name string
		run  func(t *testing.T, svc *dataservice.Service, sess *dataservice.Session, c *committers)
	}{
		{"render service", subscribeRenderServices},
		{"wire order", checkWireOrder},
	} {
		t.Run(input.name, func(t *testing.T) {
			svc := dataservice.New(dataservice.Config{Name: "data"})
			sess, err := svc.CreateSessionFromMesh("s", "mesh", genmodel.Sphere(mathx.Vec3{}, 1, 160, 120))
			if err != nil {
				t.Fatal(err)
			}
			var id scene.NodeID
			sess.Scene(func(sc *scene.Scene) { id = sc.PayloadIDs()[0] })
			c := startCommitters(sess, id, 3)
			defer c.halt()
			input.run(t, svc, sess, c)
		})
	}
}

// subscribeRenderServices subscribes render services one after another;
// each must bootstrap, and the last must converge once the commits stop.
func subscribeRenderServices(t *testing.T, svc *dataservice.Service, sess *dataservice.Session, c *committers) {
	for i := 0; i < 50; i++ {
		dsEnd, rsEnd := net.Pipe()
		served := make(chan struct{})
		go func() { svc.ServeConn(dsEnd); close(served) }()
		rs := renderservice.New(renderservice.Config{Name: fmt.Sprintf("rs-%d", i), Device: device.CentrinoLaptop, Workers: 1})
		ready := make(chan *renderservice.Session, 1)
		done := make(chan error, 1) // the subscription's one send never blocks
		go func() { done <- rs.SubscribeToData(rsEnd, "s", func(s *renderservice.Session) { ready <- s }) }()
		var replica *renderservice.Session
		select {
		case replica = <-ready:
		case err := <-done:
			t.Fatalf("subscribe %d ended before its bootstrap: %v", i, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("subscribe %d never bootstrapped", i)
		}
		if i == 49 {
			c.pause()
			deadline := time.Now().Add(10 * time.Second)
			for replica.Version() != sess.Version() {
				select {
				case err := <-done:
					t.Fatalf("subscription died before converging: %v", err)
				default:
				}
				if time.Now().After(deadline) {
					t.Fatalf("replica stuck at version %d, data service at %d", replica.Version(), sess.Version())
				}
				time.Sleep(time.Millisecond)
			}
			c.resume()
		}
		rsEnd.Close()
		dsEnd.Close()
		<-done
		<-served
	}
}

// checkWireOrder reads subscriptions off the socket as they are written.
// Every other one resumes the copy the one before it reached, attached
// while the commits are paused so the history still reaches back to it.
func checkWireOrder(t *testing.T, svc *dataservice.Service, sess *dataservice.Session, c *committers) {
	const rounds = 6
	var copyAt uint64 // the version the last subscription's ops reached
	for round := 0; round < rounds; round++ {
		resuming := round%2 == 1
		since := uint64(0)
		if resuming {
			// Paused since the last round ended; these are what the
			// resume replays, along with whatever was in flight.
			for i := 0; i < 10; i++ {
				if err := sess.ApplyUpdate(&scene.SetNameOp{ID: scene.RootID, Name: fmt.Sprint(i)}, ""); err != nil {
					t.Fatal(err)
				}
			}
			since = copyAt
		} else {
			c.resume()
		}
		var err error
		if copyAt, err = readInOrder(svc, sess, c, since); err != nil {
			t.Fatalf("round %d (resuming %t): %v", round, resuming, err)
		}
	}
	if _, resumes := sess.BootstrapStats(); resumes != rounds/2 {
		t.Errorf("%d subscriptions resumed, want %d", resumes, rounds/2)
	}
}

// readInOrder subscribes with a copy at since (none when 0), checks the
// stream's order over a run of ops, then pauses the commits, reads on to
// the session's version and returns the version its ops reached. A
// resume is attached with the commits paused, and they resume at its
// reply.
func readInOrder(svc *dataservice.Service, sess *dataservice.Session, c *committers, since uint64) (uint64, error) {
	const run = 80
	dsEnd, subEnd := net.Pipe()
	served := make(chan struct{})
	go func() { svc.ServeConn(dsEnd); close(served) }()
	defer func() {
		c.pause()
		subEnd.Close()
		<-served
	}()
	conn := transport.NewConn(subEnd)
	if err := conn.SendJSON(transport.MsgHello, transport.Hello{Role: "render-service", Name: "raw", Session: "s", SinceVersion: since}); err != nil {
		return 0, err
	}
	var prev uint64 // the version the next op must follow
	mt, payload, err := conn.Receive()
	switch {
	case err != nil:
		return 0, fmt.Errorf("no bootstrap reply: %w", err)
	case since > 0 && mt == transport.MsgResumeOK:
		prev = since
		c.resume()
	case since == 0 && mt == transport.MsgSceneSnapshot:
		sc, err := marshal.DecodeScene(payload)
		if err != nil {
			return 0, err
		}
		prev = sc.Version
	default:
		return 0, fmt.Errorf("the first message after the hello is %s, want the bootstrap reply", mt)
	}
	ops, target := 0, uint64(0)
	for {
		if ops >= run {
			if target == 0 {
				// A commit that passed the gate may still land; the
				// history holds it for the next round's resume.
				c.pause()
				target = sess.Version()
			}
			if prev >= target {
				break
			}
		}
		mt, payload, err := conn.Receive()
		if err != nil {
			return 0, fmt.Errorf("stream ended after %d ops: %w", ops, err)
		}
		switch mt {
		case transport.MsgSceneOpVer:
			version, _, err := transport.UnpackVersioned(payload)
			if err != nil {
				return 0, err
			}
			if version != prev+1 {
				return 0, fmt.Errorf("the op for version %d follows version %d", version, prev)
			}
			prev = version
			ops++
		case transport.MsgSceneSnapshot, transport.MsgResumeOK:
			return 0, fmt.Errorf("a second bootstrap reply, %s", mt)
		}
	}
	return prev, nil
}

// killAfter is the data-service end of a net.Pipe whose writes fail
// once n have gone through, the way a socket's do once the host at its
// far end is gone. The failing write runs behind first, which queues a
// delivery behind it. It counts the writes tried after the failure and
// notes its close.
type killAfter struct {
	net.Conn
	behind func()
	mu     sync.Mutex
	n      int           // writes left before the failure; -1 after it
	late   int           // writes tried after the failure
	failed chan struct{} // closed at the failure
	closed bool
}

var errKilled = errors.New("pipe killed")

func (k *killAfter) Write(b []byte) (int, error) {
	k.mu.Lock()
	switch {
	case k.n > 0:
		k.n--
		k.mu.Unlock()
		return k.Conn.Write(b)
	case k.n == 0:
		k.n = -1
		close(k.failed)
		k.mu.Unlock()
		k.behind()
		return 0, errKilled
	}
	k.late++
	k.mu.Unlock()
	return 0, errKilled
}

func (k *killAfter) Close() error {
	k.mu.Lock()
	k.closed = true
	k.mu.Unlock()
	return k.Conn.Close()
}

// killedFollower is a follow.Redial follower whose first connection's
// data-service end is a killAfter.
type killedFollower struct {
	cp       *sceneCopy
	firstEnd chan error // how the first stream ended; later ends are not read
	mu       sync.Mutex
	dials    int
	last     net.Conn // the follower's end of the newest pipe
}

// followKilled starts a killedFollower of svc saying hello; the test's
// cleanup stops it.
func followKilled(t *testing.T, svc *dataservice.Service, killed *killAfter, hello transport.Hello) *killedFollower {
	f := &killedFollower{cp: &sceneCopy{}, firstEnd: make(chan error, 1)}
	dial := func() (io.ReadWriteCloser, error) {
		dsEnd, subEnd := net.Pipe()
		var served io.ReadWriteCloser = dsEnd
		f.mu.Lock()
		if f.dials++; f.dials == 1 {
			killed.Conn, served = dsEnd, killed
		}
		f.last = subEnd
		f.mu.Unlock()
		go svc.ServeConn(served)
		return subEnd, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- follow.Redial(ctx, vclock.Real{}, retry.Policy{MaxAttempts: 50, BaseDelay: time.Millisecond}, dial,
			func(rw io.ReadWriter) (bool, error) {
				st := &follow.Stream{Conn: transport.NewConn(rw), Target: f.cp, Hello: hello}
				bootstrapped, err := st.Run(ctx)
				select {
				case f.firstEnd <- err:
				default:
				}
				return bootstrapped, err
			})
	}()
	t.Cleanup(func() {
		cancel()
		f.mu.Lock()
		f.last.Close()
		f.mu.Unlock()
		<-done
	})
	return f
}

// dialled returns how many connections the follower has dialled.
func (f *killedFollower) dialled() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dials
}

// sceneCopy is a follow.Target holding a bare scene.
type sceneCopy struct {
	mu sync.Mutex
	sc *scene.Scene
}

func (c *sceneCopy) Version() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sc == nil {
		return 0
	}
	return c.sc.Version
}

func (c *sceneCopy) Install(sc *scene.Scene) error {
	c.mu.Lock()
	c.sc = sc
	c.mu.Unlock()
	return nil
}

func (c *sceneCopy) Apply(op scene.Op) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sc.ApplyOp(op)
}

func (c *sceneCopy) SetCamera(transport.CameraState) error { return nil }

// TestFailedDeliveryCutsSubscriber: a subscriber's socket fails a write
// while two goroutines commit. Every commit succeeds. The first failed
// delivery cuts the subscriber: it leaves the fan-out, the deliveries
// already queued behind it fail with no write, and the socket is closed, so the
// follower reads the end of its stream, redials and resumes gap-only from
// the history ring, and its copy ends equal to the authority's at the
// same version. No commit after the cut is queued for the cut outbox, so
// at most one miss is counted per committing goroutine: the two
// committers and the one the failing write holds for.
func TestFailedDeliveryCutsSubscriber(t *testing.T) {
	met := telemetry.NewRegistry(vclock.Real{})
	svc := dataservice.New(dataservice.Config{Name: "data", Metrics: met})
	sess, err := svc.CreateSessionFromMesh("s", "mesh", genmodel.Sphere(mathx.Vec3{}, 1, 16, 12))
	if err != nil {
		t.Fatal(err)
	}
	var id scene.NodeID
	sess.Scene(func(sc *scene.Scene) { id = sc.PayloadIDs()[0] })

	killed := &killAfter{n: 50, failed: make(chan struct{})}
	f := followKilled(t, svc, killed, transport.Hello{Role: "render-service", Name: "copy", Session: "s"})
	cp := f.cp
	waitVersion(t, cp, sess)

	// 401 ops: the history ring's 512 reach back past the cut. Each is
	// committed, so each returns nil whatever the subscriber missed.
	var wg sync.WaitGroup
	commit := func(x, y float64) {
		if err := sess.ApplyUpdate(&scene.SetTransformOp{ID: id, Transform: mathx.Translate(mathx.V3(x, y, 0))}, ""); err != nil {
			t.Errorf("a commit returned %v, want nil: a subscriber's miss is not the author's", err)
		}
	}
	// The failing write holds the flusher until one more commit has
	// queued behind it.
	killed.behind = func() {
		v := sess.Version()
		wg.Add(1)
		go func() {
			defer wg.Done()
			commit(-1, -1)
		}()
		for deadline := time.Now().Add(10 * time.Second); sess.Version() == v && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				commit(float64(i), float64(g))
			}
		}()
	}
	select {
	case <-killed.failed:
	case <-time.After(10 * time.Second):
		t.Fatal("the pipe never failed a write")
	}
	wg.Wait()
	killed.mu.Lock()
	closed, late := killed.closed, killed.late
	killed.mu.Unlock()
	if !closed || late != 0 {
		t.Errorf("after the failed write the socket was closed: %t, and %d more writes were tried; want closed and none", closed, late)
	}
	counted := met.Snapshot().CounterValue("data", "fanout_errors_total", telemetry.PeerLabel("copy"))
	if counted < 2 || counted > 3 {
		t.Errorf("fanout_errors_total{copy} = %d, want the failed delivery and at most two queued behind it", counted)
	}

	select {
	case err := <-f.firstEnd:
		if !errors.Is(err, follow.ErrLost) || !strings.Contains(err.Error(), "stream closed") {
			t.Fatalf("the first stream ended with %v, want the end of the stream", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the follower never saw its stream end: the failed socket was left open")
	}

	for deadline := time.Now().Add(10 * time.Second); cp.Version() != sess.Version(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("copy stuck at version %d, authority at %d", cp.Version(), sess.Version())
		}
	}
	cp.mu.Lock()
	got, err := marshal.AppendScene(nil, cp.sc)
	cp.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	want, err := marshal.AppendScene(nil, sess.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("the copy differs from the authority at the same version")
	}
	snapshots, resumes := sess.BootstrapStats()
	dials := f.dialled()
	t.Logf("%d misses counted; %d dials, %d resumed, %d refused as already attached", counted, dials, resumes, uint64(dials)-snapshots-resumes)
	if snapshots != 1 || resumes == 0 {
		t.Errorf("%d snapshots and %d resumes served, want the bootstrap snapshot and a gap-only resume", snapshots, resumes)
	}
}

// TestSubmittedOpComesBack: a follower that submits an op over its own
// subscription gets it back in its stream, versioned and in commit order,
// so the commit after it is the next op, not one ahead of the copy, and
// the copy ends equal to the authority.
func TestSubmittedOpComesBack(t *testing.T) {
	svc := dataservice.New(dataservice.Config{Name: "data"})
	sess, err := svc.CreateSessionFromMesh("s", "mesh", genmodel.Sphere(mathx.Vec3{}, 1, 16, 12))
	if err != nil {
		t.Fatal(err)
	}
	dsEnd, subEnd := net.Pipe()
	t.Cleanup(func() { dsEnd.Close(); subEnd.Close() })
	go svc.ServeConn(dsEnd)
	cp := &sceneCopy{}
	conn := transport.NewConn(subEnd)
	st := &follow.Stream{Conn: conn, Target: cp, Hello: transport.Hello{Role: "render-service", Name: "author", Session: "s"}}
	ended := make(chan error, 1)
	go func() { _, err := st.Run(context.Background()); ended <- err }()
	converge := func() {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); cp.Version() != sess.Version(); time.Sleep(time.Millisecond) {
			select {
			case err := <-ended:
				t.Fatalf("the stream ended at copy version %d: %v", cp.Version(), err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("copy stuck at version %d, authority at %d", cp.Version(), sess.Version())
			}
		}
	}
	converge()

	wire, err := marshal.AppendOp(nil, &scene.SetNameOp{ID: scene.RootID, Name: "submitted"})
	if err != nil {
		t.Fatal(err)
	}
	submitted := sess.Version() + 1
	if err := conn.Send(transport.MsgSceneOp, wire); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); sess.Version() < submitted; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the submitted op was never committed")
		}
	}
	if err := sess.ApplyUpdate(&scene.SetNameOp{ID: scene.RootID, Name: "after"}, ""); err != nil {
		t.Fatal(err)
	}
	converge()
	cp.mu.Lock()
	got, err := marshal.AppendScene(nil, cp.sc)
	cp.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	want, err := marshal.AppendScene(nil, sess.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("the copy differs from the authority at the same version")
	}
}
