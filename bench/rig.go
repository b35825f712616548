package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"slices"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dataservice"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/scene"
	"repro/internal/wsdl"
)

const (
	sessionName = "elle"
	sceneNodes  = 8
	// linkBps is the throughput estimate render services hand the
	// adaptive codec. No workload asks for that codec, so it only has
	// to be a plausible LAN figure.
	linkBps = 100e6
	// opTimeout bounds every wait on the deployment; hitting it is a
	// failed op, never a hang.
	opTimeout = 10 * time.Second
)

// renderDevice is the modeled profile of every render service. With
// SimulateDeviceTime off it only feeds capacity reports; giving every
// service the same one splits tiles and scene nodes evenly.
var renderDevice = device.AthlonDesktop

// rig is one in-process RAVE deployment on loopback TCP: a UDDI
// registry over HTTP/SOAP, a data service hosting the Elle scene, and
// render services bootstrapped from it over their subscription
// sockets. All four workloads build the same scene, so the read paths
// and the write path are measured on the same data.
//
// The rig dials the deployment's sockets itself, with the calls
// core.Deployment's DialThin, DialHandle and ConnectRenderToData make,
// because those keep the socket to themselves and a deployment could
// then never be torn down: the goroutines serving each socket, and the
// scene replicas they hold, would stay until the process exits and be
// counted in the next set-up's memory.
type rig struct {
	dep      *core.Deployment
	sess     *dataservice.Session
	dataAddr string
	renders  []*renderservice.Service
	names    []string
	addrs    []string
	nodeIDs  []scene.NodeID
	base     raster.Camera

	conns []net.Conn
	// subs receive each subscription goroutine's result when it ends.
	subs []chan error

	// How long the set-up steps that have a per-layer metric took.
	bootstrapMs []float64
	scanMs      []float64
}

// newRig generates the model and brings the deployment up: session,
// registry and SOAP registrations, data listener, render services
// found again through a UDDI scan, and each render service's bootstrap.
func newRig(nRenders, workers int) (*rig, error) {
	mesh := genmodel.Elle(genmodel.PaperElleTriangles)
	dep, err := core.NewDeployment("bench-data")
	if err != nil {
		return nil, err
	}
	r := &rig{dep: dep}
	r.base = raster.DefaultCamera().FitToBounds(mesh.Bounds(), mathx.V3(0.3, 0.2, 1))
	if err := r.bringUp(mesh.SplitSpatially(sceneNodes), nRenders, workers); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) bringUp(pieces []*geom.Mesh, nRenders, workers int) error {
	sess, err := r.dep.Data.CreateSession(sessionName)
	if err != nil {
		return err
	}
	r.sess = sess
	for i, piece := range pieces {
		id, err := sess.AddMesh(fmt.Sprintf("elle-part-%d", i), piece, mathx.Identity())
		if err != nil {
			return err
		}
		r.nodeIDs = append(r.nodeIDs, id)
	}
	if err := sess.SetCamera(renderservice.StateFromCamera(r.base), ""); err != nil {
		return err
	}
	if r.dataAddr, err = r.dep.ServeData(); err != nil {
		return err
	}
	for i := 0; i < nRenders; i++ {
		name := fmt.Sprintf("render-%d", i)
		rs, addr, err := r.dep.AddRenderService(name, renderDevice, workers, linkBps)
		if err != nil {
			return err
		}
		r.renders = append(r.renders, rs)
		r.names = append(r.names, name)
		r.addrs = append(r.addrs, addr)
	}
	// Clients find services through the registry; the scan must list
	// every access point that was just registered.
	t0 := time.Now()
	points, err := r.dep.Proxy().ScanAccessPoints(wsdl.RenderServicePortType)
	r.scanMs = append(r.scanMs, ms(time.Since(t0)))
	if err != nil {
		return fmt.Errorf("uddi scan: %w", err)
	}
	for _, addr := range r.addrs {
		if !slices.Contains(points, "tcp://"+addr) {
			return fmt.Errorf("uddi scan lists %v, missing tcp://%s", points, addr)
		}
	}
	for _, rs := range r.renders {
		t0 := time.Now()
		if err := r.subscribe(rs); err != nil {
			return fmt.Errorf("bootstrap %s: %w", rs.Name(), err)
		}
		r.bootstrapMs = append(r.bootstrapMs, ms(time.Since(t0)))
	}
	return nil
}

// dial opens a socket into the deployment and remembers it for close.
func (r *rig) dial(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	r.conns = append(r.conns, conn)
	return conn, nil
}

// subscribe runs rs's subscription to the data service in the
// background and returns once the bootstrap snapshot has been applied.
func (r *rig) subscribe(rs *renderservice.Service) error {
	conn, err := r.dial(r.dataAddr)
	if err != nil {
		return err
	}
	ready := make(chan struct{})
	done := make(chan error, 1) // the goroutine's one send never blocks
	r.subs = append(r.subs, done)
	go func() {
		done <- rs.SubscribeToData(conn, sessionName, func(*renderservice.Session) { close(ready) })
	}()
	select {
	case <-ready:
		return nil
	case err := <-done:
		done <- err // close still expects one result
		if err == nil {
			err = fmt.Errorf("subscription ended before bootstrap")
		}
		return err
	case <-time.After(opTimeout):
		return fmt.Errorf("bootstrap timed out")
	}
}

// dialThin attaches a thin client to render service i.
func (r *rig) dialThin(i int, user string) (*client.Thin, error) {
	conn, err := r.dial(r.addrs[i])
	if err != nil {
		return nil, err
	}
	return client.DialThin(conn, user, sessionName)
}

// dialHandle opens the data service's render handle on render service i.
func (r *rig) dialHandle(i int) (*core.SocketHandle, error) {
	conn, err := r.dial(r.addrs[i])
	if err != nil {
		return nil, err
	}
	return core.DialSocketHandle(conn, r.names[i], sessionName)
}

// close tears the deployment down: every socket the rig dialled is
// closed, which ends the goroutines serving it on both sides, the
// subscriptions are waited for, and the listeners and registry stop.
func (r *rig) close() {
	for _, conn := range r.conns {
		conn.Close()
	}
	for _, done := range r.subs {
		<-done
	}
	r.dep.Close()
}

// replica returns render service i's copy of the session.
func (r *rig) replica(i int) (*renderservice.Session, error) {
	sess, ok := r.renders[i].SessionNamed(sessionName)
	if !ok {
		return nil, fmt.Errorf("%s holds no replica of %q", r.names[i], sessionName)
	}
	return sess, nil
}

// awaitCamera waits until every replica reports cam, yielding the
// processor to the subscription goroutines that deliver it.
func (r *rig) awaitCamera(cam raster.Camera) error {
	deadline := time.Now().Add(opTimeout)
	for i := range r.renders {
		sess, err := r.replica(i)
		if err != nil {
			return err
		}
		for spins := 0; sess.Camera() != cam; spins++ {
			runtime.Gosched()
			if spins%1024 == 1023 && time.Now().After(deadline) {
				return fmt.Errorf("%s never saw the camera update", r.names[i])
			}
		}
	}
	return nil
}

// declined sums the requests the render services' admission gates shed.
func (r *rig) declined() int {
	n := 0
	for _, rs := range r.renders {
		_, shed := rs.AdmissionStats()
		n += shed
	}
	return n
}

// orbit is the camera path of one block: a full turn around the model
// in equal steps. The seed picks where the turn starts and a small
// pitch, never how many frames there are or how far apart.
func orbit(base raster.Camera, seed uint64, steps int) []raster.Camera {
	rng := splitmix(seed)
	yaw0 := rng.float() * 2 * math.Pi
	pitch := (rng.float() - 0.5) * mathx.Radians(10)
	cams := make([]raster.Camera, steps)
	for i := range cams {
		cams[i] = base.Orbit(yaw0+float64(i)*2*math.Pi/float64(steps), pitch)
	}
	return cams
}

// splitmix is the seeded generator behind every workload's inputs.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }
