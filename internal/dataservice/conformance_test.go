package dataservice_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
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
	"repro/internal/transport"
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
	kind byte // 's' snapshot at v, 'r' resume-ok through v, 'o' the op producing v, 'v' a version report of v, 'x' the cut
	v    uint64
}

func snap(v uint64) frame   { return frame{'s', v} }
func resume(v uint64) frame { return frame{'r', v} }
func op(v uint64) frame     { return frame{'o', v} }
func report(v uint64) frame { return frame{'v', v} }
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
	case 'v':
		return transport.MsgVersionReport, []byte(fmt.Sprintf(`{"version":%d}`, f.v))
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
// stream, and an op out of turn after it, or a version report ahead of
// the copy, ends the connection, and the next hello resumes at the copy.
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
	// The follower ends each at the op or report ahead of its copy, before
	// the snapshot, and resumes.
	{name: "op racing the resync snapshot",
		conns: [][]frame{{snap(5), op(7), op(9), snap(8), op(9), op(10)}, {resume(10), op(6), op(7), op(8), op(9), op(10)}}, want: 10, since: 5},
	{name: "resync answer older than the copy",
		conns: [][]frame{{snap(5), report(7), op(6), op(7), op(8), snap(7), op(8)}, {resume(8), op(6), op(7), op(8)}}, want: 8, since: 5},
	// A version report counts the ops queued before it: at the copy it
	// says nothing was lost, ahead of it that the op between was.
	{name: "version report at the copy",
		conns: [][]frame{{snap(5), op(6), report(6), op(7)}}, want: 7},
	{name: "version report ahead of the copy",
		conns: [][]frame{{snap(5), op(6), report(7)}, {resume(7), op(7)}}, want: 7, since: 6},
}

// scriptedPrimary plays script on one end of a net.Pipe and returns the
// other; since delivers the SinceVersion of the follower's hello once the
// pipe is closed. net.Pipe is unbuffered, so a frame is sent only once
// the follower has read the one before: the follower sees the script in
// order, however its own acks interleave.
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
// primary to replay. What an ordered fan-out never sends — an op again,
// a version report — and the cut are skipped.
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
	return m.Backup().Version(), m.Err()
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
// before, and every version report the version of the op before it —
// whatever the commits overtake: the snapshot's encoding, a resume's
// replay, a version query.
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
// while the commits are paused so the history still reaches back to it;
// each sends version queries while the commits run.
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
// stream's order through a run of version queries, then pauses the
// commits, reads on to the session's version and returns the version its
// ops reached. A resume is attached with the commits paused, and they
// resume at its reply.
func readInOrder(svc *dataservice.Service, sess *dataservice.Session, c *committers, since uint64) (uint64, error) {
	const opsPerLeg, queries = 40, 5
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
	asked := make(chan error, 1) // the queries' one send never blocks
	ops, reports, target := 0, 0, uint64(0)
	for {
		if reports == queries && ops >= 2*opsPerLeg {
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
			if ops++; ops == opsPerLeg {
				// Sent beside the reads: the service may be writing to
				// this socket, and a net.Pipe write waits for its reader.
				go func() {
					for i := 0; i < queries; i++ {
						if err := conn.Send(transport.MsgVersionQuery, nil); err != nil {
							asked <- err
							return
						}
					}
					asked <- nil
				}()
			}
		case transport.MsgVersionReport:
			var vr transport.VersionReport
			if err := transport.DecodeJSON(payload, &vr); err != nil {
				return 0, err
			}
			if vr.Version != prev {
				return 0, fmt.Errorf("version %d reported after the op for version %d", vr.Version, prev)
			}
			reports++
		case transport.MsgSceneSnapshot, transport.MsgResumeOK:
			return 0, fmt.Errorf("a second bootstrap reply, %s", mt)
		}
	}
	return prev, <-asked
}

// TestProbingReplicaTakesOneSnapshot: a render service probes the data
// service's version every millisecond over TCP loopback while two
// goroutines commit as fast as they can. Each report follows the ops it
// counts, so none is ahead of the replica: the subscription takes its
// bootstrap snapshot and never redials.
func TestProbingReplicaTakesOneSnapshot(t *testing.T) {
	svc := dataservice.New(dataservice.Config{Name: "data"})
	sess, err := svc.CreateSessionFromMesh("s", "mesh", genmodel.Sphere(mathx.Vec3{}, 1, 16, 12))
	if err != nil {
		t.Fatal(err)
	}
	var id scene.NodeID
	sess.Scene(func(sc *scene.Scene) { id = sc.PayloadIDs()[0] })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { svc.ServeConn(c); c.Close() }()
		}
	}()
	var dials atomic.Int32
	dial := func() (io.ReadWriteCloser, error) {
		dials.Add(1)
		return net.Dial("tcp", ln.Addr().String())
	}
	rs := renderservice.New(renderservice.Config{Name: "rs", Device: device.CentrinoLaptop, Workers: 1})
	ready := make(chan struct{}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1) // the subscription's one send never blocks
	go func() {
		done <- rs.SubscribeToDataResilient(ctx, dial, "s", renderservice.SubscribeOpts{ProbeInterval: time.Millisecond},
			func(*renderservice.Session) {
				select {
				case ready <- struct{}{}:
				default:
				}
			})
	}()
	select {
	case <-ready:
	case err := <-done:
		t.Fatalf("subscription ended before its bootstrap: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("never bootstrapped")
	}
	c := startCommitters(sess, id, 2)
	time.Sleep(500 * time.Millisecond)
	c.halt()
	cancel() // the next report wakes the stream to see it
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("subscription ended with %v, want it cancelled", err)
	}
	snapshots, resumes := sess.BootstrapStats()
	if snapshots != 1 || resumes != 0 || dials.Load() != 1 {
		t.Errorf("%d snapshots and %d resumes over %d dials, want the bootstrap snapshot over one", snapshots, resumes, dials.Load())
	}
}
