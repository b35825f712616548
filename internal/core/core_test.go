package core

import (
	"bytes"
	"context"
	"errors"
	"image"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/client"
	"repro/internal/dataservice"
	"repro/internal/device"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/wsdl"
)

// rasterFit frames a camera on a scene's bounds.
func rasterFit(sc *scene.Scene) raster.Camera {
	return raster.DefaultCamera().FitToBounds(sc.Bounds(), mathx.V3(0.3, 0.2, 1))
}

// startDeployment builds a full TCP deployment hosting the galleon.
func startDeployment(t *testing.T) (*Deployment, string) {
	t.Helper()
	d, err := NewDeployment("data-adrenochrome")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if _, err := d.Data.CreateSessionFromMesh("galleon", "galleon", genmodel.Galleon(2500)); err != nil {
		t.Fatal(err)
	}
	dataAddr, err := d.ServeData()
	if err != nil {
		t.Fatal(err)
	}
	return d, dataAddr
}

func TestDeploymentEndToEnd(t *testing.T) {
	d, dataAddr := startDeployment(t)

	rs, rsAddr, err := d.AddRenderService("render-tower", device.AthlonDesktop, 2, 5e6)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ConnectRenderToData(rs, dataAddr, "galleon"); err != nil {
		t.Fatal(err)
	}

	// UDDI sees both services (Figure 4's browser view).
	entries := d.Registry.Dump()
	if len(entries) != 2 {
		t.Fatalf("registry entries: %+v", entries)
	}

	// Thin client pulls frames over TCP.
	thin, err := d.DialThin(rsAddr, "zaurus", "galleon")
	if err != nil {
		t.Fatal(err)
	}
	defer thin.Close()

	fb, err := thin.RequestFrame(200, 200, "raw")
	if err != nil {
		t.Fatal(err)
	}
	if fb.W != 200 || fb.H != 200 {
		t.Fatalf("frame size %dx%d", fb.W, fb.H)
	}
	nonBg := 0
	for i := 0; i < len(fb.Color); i += 3 {
		if fb.Color[i] != 0 || fb.Color[i+1] != 0 || fb.Color[i+2] != 0 {
			nonBg++
		}
	}
	if nonBg < 500 {
		t.Errorf("frame mostly empty: %d lit pixels", nonBg)
	}

	// Capacity interrogation through the client.
	rep, err := thin.Capacity()
	if err != nil || rep.Name != "render-tower" {
		t.Fatalf("capacity: %+v %v", rep, err)
	}

	// Scene edit at the data service reaches the render service and the
	// next client frame reflects it (ship removed -> darker frame).
	sess, _ := d.Data.Session("galleon")
	var shipID scene.NodeID
	sess.Scene(func(sc *scene.Scene) {
		for _, id := range sc.PayloadIDs() {
			shipID = id
		}
	})
	if err := sess.ApplyUpdate(&scene.RemoveNodeOp{ID: shipID}, ""); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		fb2, err := thin.RequestFrame(200, 200, "raw")
		if err != nil {
			t.Fatal(err)
		}
		lit := 0
		for i := 0; i < len(fb2.Color); i += 3 {
			if fb2.Color[i] != 0 || fb2.Color[i+1] != 0 || fb2.Color[i+2] != 0 {
				lit++
			}
		}
		if lit < 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("removal never reached the client: %d lit pixels", lit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSocketHandleDistribution(t *testing.T) {
	d, dataAddr := startDeployment(t)

	// Two render services subscribe to the session.
	rs1, addr1, err := d.AddRenderService("rs1", device.CentrinoLaptop, 2, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	rs2, addr2, err := d.AddRenderService("rs2", device.XeonDesktop, 2, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct {
		rs *renderservice.Service
	}{{rs1}, {rs2}} {
		if err := d.ConnectRenderToData(pair.rs, dataAddr, "galleon"); err != nil {
			t.Fatal(err)
		}
	}

	sess, _ := d.Data.Session("galleon")
	dist := sess.NewDistributor(balance.DefaultThresholds())
	sess.AttachDistributor(dist)

	dialHandle := func(addr, name string) *SocketHandle {
		conn, err := transport.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		h, err := DialSocketHandle(conn, name, "galleon")
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h1, h2 := dialHandle(addr1, "rs1"), dialHandle(addr2, "rs2")
	if err := dist.AddService(h1); err != nil {
		t.Fatal(err)
	}
	if err := dist.AddService(h2); err != nil {
		t.Fatal(err)
	}
	if _, err := dist.Distribute(); err != nil {
		t.Fatal(err)
	}
	fb, _, err := dist.Render(context.Background(), dataservice.FrameRequest{W: 120, H: 90, Mode: dataservice.Subsets})
	if err != nil {
		t.Fatal(err)
	}
	if fb.CoveredPixels() == 0 {
		t.Error("distributed render over sockets empty")
	}

	// Compare with a local whole-scene render.
	whole, _, err := rs1.RenderSceneOnce(sess.Snapshot(),
		renderservice.CameraFromState(sess.Camera()), 120, 90)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range whole.Color {
		if whole.Color[i] != fb.Color[i] {
			diff++
		}
	}
	if frac := float64(diff) / float64(len(whole.Color)); frac > 0.01 {
		t.Errorf("socket-distributed render differs on %.2f%% of bytes", frac*100)
	}
}

func TestActiveClientOverTCP(t *testing.T) {
	_, dataAddr := startDeployment(t)
	active := client.NewActive("alice", device.AthlonDesktop, 2)

	conn, err := transport.Dial(dataAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ready := make(chan struct{})
	go active.Subscribe(conn, "galleon", func() { close(ready) })
	select {
	case <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("active client bootstrap timed out")
	}

	var png bytes.Buffer
	if err := active.RenderPNG(&png, 64, 64); err != nil {
		t.Fatal(err)
	}
	if png.Len() < 100 || !bytes.HasPrefix(png.Bytes(), []byte("\x89PNG")) {
		t.Errorf("PNG output: %d bytes", png.Len())
	}
}

func TestThinClientRefusedForUnknownSession(t *testing.T) {
	d, _ := startDeployment(t)
	_, rsAddr, err := d.AddRenderService("rs", device.AthlonDesktop, 1, 5e6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.DialThin(rsAddr, "x", "no-such-session"); err == nil {
		t.Error("unknown session accepted")
	}
}

func TestUDDIDiscoveryFlow(t *testing.T) {
	d, dataAddr := startDeployment(t)
	if _, _, err := d.AddRenderService("render-a", device.CentrinoLaptop, 1, 5e6); err != nil {
		t.Fatal(err)
	}
	proxy := d.Proxy()
	points, err := proxy.Bootstrap(BusinessName, wsdl.RenderServicePortType)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("render access points: %v", points)
	}
	dataPoints, err := proxy.ScanAccessPoints(wsdl.DataServicePortType)
	if err != nil {
		t.Fatal(err)
	}
	if len(dataPoints) != 1 || dataPoints[0] != "tcp://"+dataAddr {
		t.Fatalf("data access points: %v (want %s)", dataPoints, dataAddr)
	}
}

func TestLocalHandle(t *testing.T) {
	rs := renderservice.New(renderservice.Config{Name: "local", Device: device.SGIOnyx, Workers: 1})
	h := &LocalHandle{Svc: rs}
	if h.Name() != "local" {
		t.Error("name")
	}
	cap, err := h.Capacity()
	if err != nil || cap.PolysPerSecond != device.SGIOnyx.TriRate {
		t.Fatalf("capacity: %+v %v", cap, err)
	}
	sc := scene.New()
	id := sc.AllocID()
	if err := sc.ApplyOp(&scene.AddNodeOp{
		Parent: scene.RootID, ID: id, Transform: mathx.Identity(),
		Payload: &scene.MeshPayload{Mesh: genmodel.Sphere(mathx.Vec3{}, 1, 16, 8)},
	}); err != nil {
		t.Fatal(err)
	}
	tile, err := h.Render(dataservice.RenderJob{Scene: sc, Camera: rasterFit(sc), Rect: image.Rect(0, 0, 48, 48), FullW: 48, FullH: 48})
	if err != nil || tile.FB.CoveredPixels() == 0 {
		t.Fatalf("local subset render: %v", err)
	}
}

func TestConnectRenderToDataErrors(t *testing.T) {
	d, _ := startDeployment(t)
	rs := renderservice.New(renderservice.Config{Name: "x", Device: device.AthlonDesktop})
	// Unreachable data service.
	if err := d.ConnectRenderToData(rs, "127.0.0.1:1", "galleon"); err == nil {
		t.Error("unreachable data service accepted")
	}
	// Reachable but unknown session.
	dataAddr, _ := d.Proxy().ScanAccessPoints(wsdl.DataServicePortType)
	err := d.ConnectRenderToData(rs, dataAddr[0], "ghost-session")
	if err == nil {
		t.Error("unknown session subscription accepted")
	}
	var refusal error = err
	if refusal == nil || errors.Is(refusal, nil) {
		t.Error("no refusal error")
	}
}
