package dataservice_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/dataservice"
	"repro/internal/dataservice/failover"
	"repro/internal/device"
	"repro/internal/marshal"
	"repro/internal/mathx"
	"repro/internal/renderservice"
	"repro/internal/retry"
	"repro/internal/scene"
	"repro/internal/transport"
)

// The op-stream follower conformance table: every row is a scripted
// primary, and every follower built on internal/follow — the render
// service's replica, the hot standby, the in-process mirror — must end
// at the same version having asked for the same number of resyncs.

// base is the primary's version when each script starts.
const base = 5

// frame is one message of a scripted primary.
type frame struct {
	kind byte // 's' snapshot at v, 'r' resume-ok through v, 'o' the op producing v
	v    uint64
}

func snap(v uint64) frame   { return frame{'s', v} }
func resume(v uint64) frame { return frame{'r', v} }
func op(v uint64) frame     { return frame{'o', v} }

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
	// conns is one script per connection; every connection but the last
	// ends in a dropped link, the last in Bye.
	conns [][]frame
	want  uint64 // the copy's final version
	// since is the SinceVersion a socket follower's last hello must carry.
	since uint64
	// resyncs is how many MsgResyncRequests a socket follower sends.
	resyncs int
	// lossy rows need a transport that loses messages, so they skip the
	// in-process mirror: the session fan-out delivers every op once.
	lossy bool
}

var conformance = []conformanceRow{
	{name: "in order",
		conns: [][]frame{{snap(5), op(6), op(7)}}, want: 7},
	{name: "duplicates",
		conns: [][]frame{{snap(5), op(6), op(6), op(7), op(6)}}, want: 7},
	{name: "resume-ok and the gap",
		conns: [][]frame{{snap(5), op(6)}, {resume(8), op(7), op(8)}}, want: 8, since: 6},
	{name: "fan-out overtakes the resume replay",
		conns: [][]frame{{snap(5)}, {resume(7), op(8), op(6), op(7)}}, want: 8, since: 5},
	{name: "op before its bootstrap snapshot",
		conns: [][]frame{{op(6), snap(5)}}, want: 6},
	{name: "ahead, then filled in",
		conns: [][]frame{{snap(5), op(7), op(6)}}, want: 7, resyncs: 1},
	{name: "gap followed by further ops",
		conns: [][]frame{{snap(5), op(7), op(8), op(9), op(10), snap(10)}}, want: 10, resyncs: 1, lossy: true},
	{name: "op racing the resync snapshot",
		conns: [][]frame{{snap(5), op(7), op(9), snap(8), op(10)}}, want: 10, resyncs: 1, lossy: true},
	{name: "resync answer older than the copy",
		conns: [][]frame{{snap(5), op(7), op(6), op(8), snap(7)}}, want: 8, resyncs: 1, lossy: true},
}

// primaryLog is what a scripted primary saw from its follower.
type primaryLog struct {
	since   uint64
	resyncs int
}

// scriptedPrimary plays script on one end of a net.Pipe and returns the
// other; log delivers what the follower sent once the pipe is closed.
// net.Pipe is unbuffered, so a frame is sent only once the follower has
// read the one before: the follower sees the script in order, however
// its own acks and requests interleave.
func scriptedPrimary(script []frame, last bool) (follower net.Conn, log <-chan primaryLog) {
	server, client := net.Pipe()
	conn := transport.NewConn(server)
	logc := make(chan primaryLog, 1) // the reader's one send never blocks
	go func() {
		var log primaryLog
		for {
			mt, payload, err := conn.Receive()
			if err != nil {
				logc <- log
				return
			}
			switch mt {
			case transport.MsgHello:
				var hello transport.Hello
				_ = transport.DecodeJSON(payload, &hello)
				log.since = hello.SinceVersion
			case transport.MsgResyncRequest:
				log.resyncs++
			}
		}
	}()
	go func() {
		for _, f := range script {
			if conn.Send(f.wire()) != nil {
				return
			}
		}
		if last {
			_ = conn.Send(transport.MsgBye, nil)
		} else {
			server.Close()
		}
	}()
	return client, logc
}

// socketFollower runs one kind of socket follower over the connections
// dial hands out, returning its copy's version after the last one's Bye.
type socketFollower func(t *testing.T, dial func() net.Conn, conns int) (version uint64, err error)

func renderFollower(t *testing.T, dial func() net.Conn, conns int) (uint64, error) {
	rs := renderservice.New(renderservice.Config{Name: "rs", Device: device.CentrinoLaptop, Workers: 1})
	var replica *renderservice.Session
	err := rs.SubscribeToDataResilient(context.Background(),
		func() (io.ReadWriteCloser, error) { return dial(), nil }, "s",
		renderservice.SubscribeOpts{Retry: retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond}},
		func(sess *renderservice.Session) { replica = sess })
	if err != nil || replica == nil {
		return 0, fmt.Errorf("subscription: %v (bootstrapped: %t)", err, replica != nil)
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

// mirrorFollower plays row against the in-process mirror. The primary
// is a real session: an op frame that is the primary's next version is
// committed, so the session's own fan-out delivers it; any other op
// frame is a delivery the fan-out made early, late or twice, replayed by
// calling SendUpdate as the fan-out does. A connection is one attach; a
// dropped link is a Detach with the backup keeping its copy.
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
		for _, f := range script {
			if f.kind == 'r' { // what the primary will replay was committed while detached
				if err := commitThrough(f.v); err != nil {
					return 0, err
				}
			}
		}
		var land func() (bool, error)
		if m, land, err = dataservice.SubscribeMirror(primary, backupSvc); err != nil {
			return 0, err
		}
		for _, f := range script {
			switch {
			case f.kind != 'o':
				resumed, err := land()
				if err != nil {
					return 0, err
				}
				if resumed != (f.kind == 'r') {
					return 0, fmt.Errorf("bootstrap resumed = %t on a %q frame", resumed, f.kind)
				}
			case f.v == primary.Version()+1:
				err = commitThrough(f.v)
			default:
				err = m.SendUpdate(dataservice.Update{Op: opFor(f.v), Version: f.v})
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
				var logs []<-chan primaryLog
				var clients []net.Conn
				dial := func() net.Conn {
					i := len(logs)
					if i >= len(row.conns) {
						t.Errorf("follower dialled %d times, script has %d connections", i+1, len(row.conns))
						i = len(row.conns) - 1
					}
					client, log := scriptedPrimary(row.conns[i], i == len(row.conns)-1)
					logs, clients = append(logs, log), append(clients, client)
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
					t.Fatal("follower never finished the script")
				}
				if got.err != nil {
					t.Fatalf("follower failed: %v", got.err)
				}
				if got.version != row.want {
					t.Errorf("copy ended at version %d, want %d", got.version, row.want)
				}
				var resyncs int
				var since uint64
				for i, log := range logs {
					clients[i].Close()
					l := <-log
					resyncs, since = resyncs+l.resyncs, l.since
				}
				if resyncs != row.resyncs {
					t.Errorf("follower sent %d resync requests, want %d", resyncs, row.resyncs)
				}
				if since != row.since {
					t.Errorf("last hello carried SinceVersion %d, want %d", since, row.since)
				}
			})
		}
		if row.lossy {
			continue
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

// TestSubscribeWhileCommitting: ServeConn registers the subscriber with
// the fan-out before it has sent the bootstrap snapshot, so under write
// load an op regularly reaches the socket first. A plain SubscribeToData
// must hold it, bootstrap, and converge — not die on "expected snapshot".
func TestSubscribeWhileCommitting(t *testing.T) {
	svc := dataservice.New(dataservice.Config{Name: "data"})
	sess, err := svc.CreateSession("s")
	if err != nil {
		t.Fatal(err)
	}
	id := sess.AllocID()
	if err := sess.ApplyUpdate(&scene.AddNodeOp{Parent: scene.RootID, ID: id, Name: "n", Transform: mathx.Identity()}, ""); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	committed := make(chan struct{})
	go func() {
		defer close(committed)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				// Fan-out errors are subscribers leaving mid-send, not a failed commit.
				_ = sess.ApplyUpdate(&scene.SetTransformOp{ID: id, Transform: mathx.Translate(mathx.V3(float64(i), 0, 0))}, "")
			}
		}
	}()
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
			close(stop)
			<-committed
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
		}
		rsEnd.Close()
		dsEnd.Close()
		<-done
		<-served
	}
}
