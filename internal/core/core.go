// Package core is RAVE's public facade: it assembles complete
// deployments — UDDI registry, data service, render services, thin and
// active clients — either in-process or across real TCP sockets, wiring
// the pieces exactly as Figure 1 shows. The examples and the benchmark
// build on Deployment; the daemons (cmd/ravedata, raverender, ravethin,
// raveactive, ravegw) run the same pieces: Serve, Register, LogTelemetry,
// ServiceDialer, and DataNode for a data service's whole life-cycle.
package core

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	rthin "repro/internal/client"
	"repro/internal/compositor"
	"repro/internal/dataservice"
	"repro/internal/device"
	"repro/internal/marshal"
	"repro/internal/renderservice"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/uddi"
	"repro/internal/vclock"
	"repro/internal/wsdl"
)

// BusinessName is the UDDI business entity all RAVE services register
// under, mirroring the paper's "business representing the RAVE project".
const BusinessName = "RAVE"

// LocalHandle adapts an in-process render service to the data service's
// RenderHandle, for single-process deployments and tests.
type LocalHandle struct {
	Svc *renderservice.Service
	// Session names the render-service session replica used for tile
	// rendering. Empty selects the sole live session.
	Session string
}

// Name implements dataservice.RenderHandle.
func (h *LocalHandle) Name() string { return h.Svc.Name() }

// Capacity implements dataservice.RenderHandle.
func (h *LocalHandle) Capacity() (transport.CapacityReport, error) {
	return h.Svc.Capacity(), nil
}

// Render implements dataservice.RenderHandle: a job that brings its own
// scene renders statelessly, any other against the local session
// replica, both under the service's admission control.
func (h *LocalHandle) Render(job dataservice.RenderJob) (compositor.Tile, error) {
	if job.Scene == nil {
		sess, ok := h.Svc.SessionNamed(h.Session)
		if !ok {
			return compositor.Tile{}, fmt.Errorf("core: no session %q on %s", h.Session, h.Svc.Name())
		}
		job.Session = sess
	}
	frame, err := h.Svc.Render(job)
	if err != nil {
		return compositor.Tile{}, err
	}
	return compositor.Tile{Rect: job.Rect, FB: frame.FB, Version: frame.Version}, nil
}

var _ dataservice.RenderHandle = (*LocalHandle)(nil)

// SocketHandle drives a remote render service over a direct socket as a
// "peer": every job is one MsgRender exchange. The remote service needs
// the session's replica by the time a job draws from it, not by the
// hello.
//
// Request/response exchanges are serialized by a channel semaphore, not
// a mutex: the lockedio contract forbids holding a sync.Mutex across
// socket I/O, because a netsim-stalled link would then block every
// goroutine touching the lock with no way out. With the semaphore, a
// stall confines itself to the in-flight exchange, and acquisition stays
// interruptible (a future caller can select against it).
type SocketHandle struct {
	name string

	sem      chan struct{} // capacity 1: owns the conn's request pipeline
	done     chan struct{} // closed by Close: unblocks queued acquirers
	stopOnce sync.Once
	conn     *transport.Conn
}

// acquire takes ownership of the request pipeline, or fails when the
// handle has been closed — a caller queued behind a stalled exchange is
// released instead of blocking forever.
func (h *SocketHandle) acquire() error {
	select {
	case h.sem <- struct{}{}:
		return nil
	case <-h.done:
		return fmt.Errorf("core: handle %s closed", h.name)
	}
}

// release returns ownership.
func (h *SocketHandle) release() { <-h.sem }

// Close releases every caller queued on the request pipeline. The
// in-flight exchange (if any) still owns the conn; closing the
// underlying stream is the dialer's job.
func (h *SocketHandle) Close() {
	h.stopOnce.Do(func() { close(h.done) })
}

// DialSocketHandle says hello on rw as a peer of the render service name
// and returns a handle on its replica of session.
func DialSocketHandle(rw io.ReadWriter, name, session string) (*SocketHandle, error) {
	h := &SocketHandle{
		name: name, conn: transport.NewConn(rw),
		sem: make(chan struct{}, 1), done: make(chan struct{}),
	}
	// Attribute transport failures and refusals to the remote service, so
	// error telemetry can label by peer name.
	h.conn.SetPeer(name)
	if err := h.conn.Greet(transport.Hello{Role: "peer", Name: "data-service", Session: session}); err != nil {
		return nil, err
	}
	return h, nil
}

// Name implements dataservice.RenderHandle.
func (h *SocketHandle) Name() string { return h.name }

// Capacity implements dataservice.RenderHandle.
func (h *SocketHandle) Capacity() (rep transport.CapacityReport, err error) {
	if err = h.acquire(); err != nil {
		return rep, err
	}
	defer h.release()
	if err = h.conn.Send(transport.MsgCapacityQuery, nil); err == nil {
		err = h.conn.ExpectJSON(transport.MsgCapacityReport, &rep)
	}
	return rep, err
}

// Render implements dataservice.RenderHandle: the job as a MsgRender,
// its scene behind it when it brings one. The frame deadline rides the
// request as absolute nanoseconds, so the remote service's admission
// control sees the budget the data service planned with; the caller's
// span context rides along so the remote render span joins the frame's
// trace tree. A typed decline comes back as the *renderservice.ErrOverloaded
// the resilient layers (hedging, breakers) dispatch on.
func (h *SocketHandle) Render(job dataservice.RenderJob) (compositor.Tile, error) {
	req := transport.RenderRequest{
		X0: job.Rect.Min.X, Y0: job.Rect.Min.Y, X1: job.Rect.Max.X, Y1: job.Rect.Max.Y,
		FullW: job.FullW, FullH: job.FullH,
		DeadlineNanos: transport.DeadlineToNanos(job.Deadline),
		Trace:         uint64(job.Trace.Trace), Parent: uint64(job.Trace.Span),
	}
	var snap []byte
	if job.Scene != nil {
		cam := renderservice.StateFromCamera(job.Camera)
		req.Camera = &cam
		var err error
		if snap, err = marshal.AppendScene(nil, job.Scene); err != nil {
			return compositor.Tile{}, err
		}
	}
	if err := h.acquire(); err != nil {
		return compositor.Tile{}, err
	}
	defer h.release()

	err := h.conn.SendJSON(transport.MsgRender, req)
	if err == nil && job.Scene != nil {
		err = h.conn.Send(transport.MsgSceneSnapshot, snap)
	}
	if err != nil {
		return compositor.Tile{}, err
	}
	payload, err := h.conn.Expect(transport.MsgFrameDepth)
	if err != nil {
		return compositor.Tile{}, err
	}
	// Checked here, in the part's goroutine, a bad reply is a failed part.
	// The tile keeps the bytes (Receive allocates each payload afresh):
	// they are painted only when the frame is assembled.
	version, frame, _ := transport.UnpackVersioned(payload)
	w, ht, err := marshal.CheckFrame(frame)
	if err != nil {
		return compositor.Tile{}, fmt.Errorf("core: frame from %s: %w", h.name, err)
	}
	if w != job.Rect.Dx() || ht != job.Rect.Dy() {
		return compositor.Tile{}, fmt.Errorf("core: %s answered a %dx%d job with a %dx%d frame", h.name, job.Rect.Dx(), job.Rect.Dy(), w, ht)
	}
	return compositor.Tile{Rect: job.Rect, Frame: frame, Version: version}, nil
}

var _ dataservice.RenderHandle = (*SocketHandle)(nil)

// Deployment assembles a full RAVE installation: a UDDI registry served
// over HTTP, one data service, any number of render services, and the
// TCP listeners joining them.
type Deployment struct {
	Registry    *uddi.Registry
	RegistryURL string
	Data        *dataservice.Service

	mu        sync.Mutex
	listeners []net.Listener
	httpSrv   *http.Server
}

// NewDeployment starts a registry on a loopback port and creates the
// data service.
func NewDeployment(dataName string) (*Deployment, error) {
	reg := uddi.NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("core: registry listener: %w", err)
	}
	srv := &http.Server{Handler: uddi.NewServer(reg)}
	go srv.Serve(ln)
	return &Deployment{
		Registry:    reg,
		RegistryURL: "http://" + ln.Addr().String(),
		Data:        dataservice.New(dataservice.Config{Name: dataName}),
		httpSrv:     srv,
	}, nil
}

// Proxy returns a fresh UDDI proxy on the deployment's registry.
func (d *Deployment) Proxy() *uddi.Proxy { return uddi.Connect(d.RegistryURL) }

// listen opens a loopback listener served by handle and registers its
// access point in UDDI as name's portType endpoint.
func (d *Deployment) listen(name, portType string, handle func(net.Conn) error) (addr string, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	d.mu.Lock()
	d.listeners = append(d.listeners, ln)
	d.mu.Unlock()
	go Serve(ln, handle, nil)
	addr = ln.Addr().String()
	return addr, Register(d.RegistryURL, name, "tcp://"+addr, portType)
}

// ServeData starts a TCP listener for the data service's direct-socket
// subscriptions, registers its access point in UDDI and returns the
// address.
func (d *Deployment) ServeData() (string, error) {
	return d.listen(d.Data.Name(), wsdl.DataServicePortType,
		func(c net.Conn) error { return d.Data.ServeConn(c) })
}

// AddRenderService creates a render service on the given device profile,
// starts its client-facing TCP listener, and registers it in UDDI.
// linkBps is the throughput estimate fed to the adaptive codec.
func (d *Deployment) AddRenderService(name string, dev device.Profile, workers int, linkBps float64) (*renderservice.Service, string, error) {
	rs := renderservice.New(renderservice.Config{Name: name, Device: dev, Workers: workers})
	addr, err := d.listen(name, wsdl.RenderServicePortType,
		func(c net.Conn) error { return rs.ServeClient(c, linkBps) })
	if err != nil {
		return nil, "", err
	}
	return rs, addr, nil
}

// ConnectRenderToData dials the data service and runs the render
// service's subscription loop in the background, returning once the
// bootstrap snapshot has been applied.
func (d *Deployment) ConnectRenderToData(rs *renderservice.Service, dataAddr, session string) error {
	conn, err := transport.Dial(dataAddr)
	if err != nil {
		return err
	}
	ready := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- rs.SubscribeToData(conn, session, func(*renderservice.Session) { close(ready) })
		conn.Close()
	}()
	select {
	case <-ready:
		return nil
	case err := <-errc:
		if err == nil {
			err = fmt.Errorf("core: subscription ended before bootstrap")
		}
		return err
	case <-vclock.Real{}.After(30 * time.Second):
		conn.Close()
		return fmt.Errorf("core: bootstrap timed out")
	}
}

// firstReachable connects to the first access point that answers;
// connect maps an access point to a stream, nil meaning a plain TCP dial.
func firstReachable(points []string, connect func(accessPoint string) (io.ReadWriteCloser, error)) (io.ReadWriteCloser, error) {
	if connect == nil {
		connect = func(ap string) (io.ReadWriteCloser, error) { return transport.Dial(ap) }
	}
	var lastErr error
	for _, ap := range points {
		rw, err := connect(ap)
		if err == nil {
			return rw, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// DiscoverDialer returns a dialer that re-queries UDDI on every dial:
// one incremental scan (§5.5) for access points advertising tmodelName,
// then a connection to the first that answers. This is how a subscriber
// finds a promoted standby after its primary dies — the standby
// re-registers its access point, and the next reconnect attempt discovers
// it instead of hammering the dead address. connect maps an access point
// to a stream; nil means a plain TCP dial.
func DiscoverDialer(proxy *uddi.Proxy, tmodelName string, connect func(accessPoint string) (io.ReadWriteCloser, error)) transport.Dialer {
	return func() (io.ReadWriteCloser, error) {
		points, err := proxy.ScanAccessPoints(tmodelName)
		if err != nil {
			return nil, fmt.Errorf("core: discovery scan: %w", err)
		}
		if len(points) == 0 {
			return nil, fmt.Errorf("core: no %s access points registered", tmodelName)
		}
		rw, err := firstReachable(points, connect)
		if err != nil {
			return nil, fmt.Errorf("core: all %d %s access points failed: %w", len(points), tmodelName, err)
		}
		return rw, nil
	}
}

// ServiceDialer is how a daemon reaches the service it was pointed at:
// addr, when given, is redialled as it stands; otherwise the registry at
// registryURL is re-scanned for portType on every dial (DiscoverDialer),
// and found, when set, is told which access point answered.
func ServiceDialer(addr, registryURL, portType string, found func(accessPoint string)) transport.Dialer {
	if addr != "" {
		return func() (io.ReadWriteCloser, error) { return transport.Dial(addr) }
	}
	return DiscoverDialer(uddi.Connect(registryURL), portType, func(ap string) (io.ReadWriteCloser, error) {
		conn, err := transport.Dial(ap)
		if err == nil && found != nil {
			found(ap)
		}
		return conn, err
	})
}

// ReplicaScanner is the slice of the UDDI replica index that
// nearest-replica discovery needs: one query returning the session's
// live copies, pre-sorted by topology distance from the caller's
// region and then by caught-up-ness (*uddi.Proxy satisfies it).
type ReplicaScanner interface {
	QueryReplicas(session, fromRegion string, now time.Time) ([]uddi.Replica, error)
}

// NearestReplicaDialer returns a dialer that re-queries the replica
// index on every dial and connects to the topologically nearest live
// copy of the session: in-region rows first, the most caught-up copy
// within each distance band. This is how a read-mostly subscriber in
// region B avoids streaming its bootstrap across the WAN when a replica
// lives next door — and how it finds a *surviving* copy when its own
// region's primary is cut off by a partition. Rows without an access
// point are skipped; fallback (may be nil) is tried when the index has
// no usable rows or every access point fails. connect maps an access
// point to a stream; nil means a plain TCP dial. clock supplies the
// liveness timestamp for TTL'd rows.
func NearestReplicaDialer(scanner ReplicaScanner, clock vclock.Clock, session, fromRegion string, fallback transport.Dialer, connect func(accessPoint string) (io.ReadWriteCloser, error)) transport.Dialer {
	return func() (io.ReadWriteCloser, error) {
		rows, err := scanner.QueryReplicas(session, fromRegion, clock.Now())
		if err != nil && fallback == nil {
			return nil, fmt.Errorf("core: replica query: %w", err)
		}
		var points []string
		for _, rep := range rows {
			if rep.AccessPoint != "" {
				points = append(points, rep.AccessPoint)
			}
		}
		rw, err := firstReachable(points, connect)
		switch {
		case rw != nil:
			return rw, nil
		case fallback != nil:
			return fallback()
		case err != nil:
			return nil, fmt.Errorf("core: every replica of %q failed: %w", session, err)
		}
		return nil, fmt.Errorf("core: no live replicas of %q registered", session)
	}
}

// DialThin connects a thin client to a render service address.
func (d *Deployment) DialThin(renderAddr, user, session string) (*rthin.Thin, error) {
	conn, err := transport.Dial(renderAddr)
	if err != nil {
		return nil, err
	}
	return rthin.DialThin(conn, user, session)
}

// Close shuts down listeners and the registry server.
func (d *Deployment) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, ln := range d.listeners {
		ln.Close()
	}
	d.httpSrv.Close()
}

// Serve accepts connections on ln and runs handle on each in its own
// goroutine, closing the connection when handle returns and passing a
// failed handler's error to onErr (nil drops it). When Accept fails —
// the listener was closed — Serve closes every connection still open,
// waits for the handlers and returns Accept's error, so closing the
// listener stops everything it started.
func Serve(ln net.Listener, handle func(net.Conn) error, onErr func(error)) error {
	var mu sync.Mutex
	open := map[net.Conn]struct{}{}
	var wg sync.WaitGroup
	for {
		c, err := ln.Accept()
		if err != nil {
			mu.Lock()
			for c := range open {
				c.Close()
			}
			mu.Unlock()
			wg.Wait()
			return err
		}
		mu.Lock()
		open[c] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := handle(c)
			c.Close()
			mu.Lock()
			delete(open, c)
			mu.Unlock()
			if err != nil && onErr != nil {
				onErr(err)
			}
		}()
	}
}

// Register publishes a service's access point in the UDDI registry at
// registryURL, under the RAVE business entity and advertising portType.
func Register(registryURL, service, accessPoint, portType string) error {
	if _, err := uddi.Connect(registryURL).RegisterService(BusinessName, service, accessPoint, portType); err != nil {
		return fmt.Errorf("UDDI registration of %s: %w", service, err)
	}
	return nil
}

// LogTelemetry writes a snapshot of metrics to w every interval — the
// operator's running view of queue depths, hedge activity and WAL cost —
// until ctx is done or a write fails.
func LogTelemetry(ctx context.Context, clock vclock.Clock, metrics *telemetry.Registry, every time.Duration, w io.Writer) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-clock.After(every):
		}
		if err := telemetry.WriteText(w, metrics.Snapshot()); err != nil {
			return
		}
	}
}
