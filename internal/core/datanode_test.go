package core

import (
	"context"
	"errors"
	"log"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/dataservice"
	"repro/internal/device"
	"repro/internal/mathx"
	"repro/internal/renderservice"
	"repro/internal/retry"
	"repro/internal/scene"
	"repro/internal/uddi"
	"repro/internal/wsdl"
)

// testLog routes a node's log lines into the test's.
type testLog struct{ t *testing.T }

func (w testLog) Write(p []byte) (int, error) {
	w.t.Log(string(p[:len(p)-1]))
	return len(p), nil
}

// waitFor polls, on the wall clock, until cond holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestDataNodeFailoverFollowedThroughRegistry runs what the daemons run,
// in one process on loopback TCP and the wall clock: a registry, a
// ravedata primary and a ravedata standby (DataNode.Run on the settings
// their flags would give), and a render service subscribed the way
// raverender -registry subscribes (ServiceDialer, no data address). The
// primary is then stopped — listener, connections, lease keeper, index
// heartbeat, as a kill would. The standby must win the lapsed lease,
// promote and re-register; the render replica must find it through the
// registry and go on following ops committed on the promoted session.
func TestDataNodeFailoverFollowedThroughRegistry(t *testing.T) {
	registry := httptest.NewServer(uddi.NewServer(uddi.NewRegistry()))
	defer registry.Close()
	const renew = 40 * time.Millisecond

	// run starts node the way cmd/ravedata's main does; the returned stop
	// cancels it and waits for everything it started.
	run := func(node *DataNode) (stop func()) {
		node.Session, node.Registry, node.Renew, node.CompactEvery = "skull", registry.URL, renew, 256
		node.Info = log.New(testLog{t}, node.Name+": ", 0)
		node.Warn = log.New(testLog{t}, node.Name+": WARN ", 0)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- node.Run(ctx, ln) }()
		return sync.OnceFunc(func() {
			cancel()
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Errorf("%s stopped with %v", node.Name, err)
			}
		})
	}
	session := func(node *DataNode) *dataservice.Session {
		var sess *dataservice.Session
		waitFor(t, node.Name+"'s copy of the session", func() (ok bool) {
			sess, ok = node.Service().Session("skull")
			return ok
		})
		return sess
	}
	commit := func(sess *dataservice.Session, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			op := &scene.AddNodeOp{Parent: scene.RootID, ID: sess.AllocID(), Name: "n", Transform: mathx.Identity()}
			if err := sess.ApplyUpdate(op, ""); err != nil {
				t.Fatal(err)
			}
		}
	}

	primary := &DataNode{Name: "prim", Model: "galleon", Triangles: 600, Region: "eu", Lease: true, Replicas: 1}
	stopPrimary := run(primary)
	defer stopPrimary()
	standby := &DataNode{Name: "sby", Region: "us", Standby: true}
	stopStandby := run(standby)
	defer stopStandby()

	rs := renderservice.New(renderservice.Config{Name: "rs", Device: device.AthlonDesktop, Workers: 1})
	subCtx, subCancel := context.WithCancel(context.Background())
	subDone := make(chan error, 1)
	defer func() {
		subCancel()
		stopStandby() // the subscription sees its context once its read fails
		<-subDone
	}()
	ready := make(chan *renderservice.Session, 1)
	go func() {
		opts := renderservice.SubscribeOpts{Retry: retry.Policy{BaseDelay: 5 * time.Millisecond, MaxDelay: renew}}
		subDone <- rs.SubscribeToDataResilient(subCtx, ServiceDialer("", registry.URL, wsdl.DataServicePortType, nil), "skull", opts,
			func(s *renderservice.Session) {
				select {
				case ready <- s:
				default:
				}
			})
	}()
	var replica *renderservice.Session
	select {
	case replica = <-ready:
	case <-time.After(20 * time.Second):
		t.Fatal("render service never bootstrapped through the registry")
	}

	onPrimary := session(primary)
	commit(onPrimary, 3)
	onStandby := session(standby)
	waitFor(t, "standby and render replica to catch up", func() bool {
		return onStandby.Version() == onPrimary.Version() && replica.Version() == onPrimary.Version()
	})
	if !onStandby.IsReadOnly() {
		t.Fatal("standby's copy is writable before promotion")
	}

	stopPrimary()
	waitFor(t, "standby to promote", func() bool { return !onStandby.IsReadOnly() })
	proxy := uddi.Connect(registry.URL)
	waitFor(t, "promoted standby to re-register beside the dead primary", func() bool {
		points, err := proxy.ScanAccessPoints(wsdl.DataServicePortType)
		return err == nil && len(points) == 2
	})

	before := replica.Version()
	commit(onStandby, 4)
	waitFor(t, "render replica to follow the promoted standby", func() bool {
		return replica.Version() == onStandby.Version()
	})
	if replica.Version() != before+4 {
		t.Errorf("render replica at version %d, want %d", replica.Version(), before+4)
	}
}
