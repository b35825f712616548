// Package client implements RAVE's two client roles: the thin client
// (§3.1.3) — a device with little or no rendering capability, like the
// Sharp Zaurus PDA, that receives rendered frames from a render service —
// and the active render client (§3.1.2) — "a stand-alone copy of the
// render service that can only render to the screen", used when no
// Grid/Web service container can be installed locally.
package client

import (
	"errors"
	"fmt"
	"image/png"
	"io"
	"time"

	"repro/internal/device"
	"repro/internal/imgcodec"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/transport"
)

// Thin is a thin client attached to a render service over a direct
// socket. It only manipulates the camera and presents received frames —
// "the actual data processing and rendering transformations are carried
// out remotely whilst the local client only deals with information
// presentation."
type Thin struct {
	conn *transport.Conn
	prev []byte // the last frame decoded, in any codec: what a delta is against
	// err ends the Thin: a transport failure, or a frame it could not
	// decode, which the service has made its reference all the same, so
	// the next delta would decode against the wrong frame.
	err error
}

// DialThin performs the hello handshake on an established socket.
func DialThin(rw io.ReadWriter, name, session string) (*Thin, error) {
	conn := transport.NewConn(rw)
	if err := conn.Greet(transport.Hello{Role: "thin-client", Name: name, Session: session}); err != nil {
		return nil, fmt.Errorf("client: hello: %w", err)
	}
	return &Thin{conn: conn}, nil
}

// answered reports an error that is an answer on a healthy stream: a
// refusal or a typed decline. Anything else ends the stream.
func answered(err error) bool {
	return errors.As(err, new(*RefusedError)) || errors.As(err, new(*renderservice.ErrOverloaded))
}

// fail keeps err as the Thin's end unless it was answered, and returns
// it.
func (c *Thin) fail(err error) error {
	if err != nil && !answered(err) {
		c.err = err
	}
	return err
}

// SetCamera sends a camera update (stylus drag on the PDA).
func (c *Thin) SetCamera(cam raster.Camera) error {
	if c.err != nil {
		return c.err
	}
	return c.fail(c.conn.SendJSON(transport.MsgCameraUpdate, renderservice.StateFromCamera(cam)))
}

// RequestFrame asks for one rendered frame and decodes it. codec may be
// "raw", "rle", "delta-rle", "flate", "adaptive" or empty (raw). Several
// viewers may share a session on any codec: the reference frame of a
// delta is the connection's, here and at the service.
func (c *Thin) RequestFrame(w, h int, codec string) (*raster.Framebuffer, error) {
	return c.RequestFrameBy(w, h, codec, time.Time{})
}

// RequestFrameBy is RequestFrame with an absolute deadline propagated
// to the render service (zero means none): a service that cannot meet
// it answers with a typed *renderservice.ErrOverloaded instead of a
// frame, and the caller can retry elsewhere or after the hint. That and
// a *RefusedError are answers on a healthy stream, typed so resilient
// wrappers know not to reconnect over them. Any other failure, a frame
// that does not decode among them, ends the Thin: every later call
// returns it and sends nothing.
func (c *Thin) RequestFrameBy(w, h int, codec string, deadline time.Time) (*raster.Framebuffer, error) {
	if c.err != nil {
		return nil, c.err
	}
	err := c.conn.SendJSON(transport.MsgRender, transport.RenderRequest{
		X1: w, Y1: h, FullW: w, FullH: h, Codec: codec, DeadlineNanos: transport.DeadlineToNanos(deadline),
	})
	if err != nil {
		return nil, c.fail(err)
	}
	payload, err := c.conn.Expect(transport.MsgFrame)
	if err != nil {
		return nil, c.fail(err)
	}
	_, fw, fh, frame, err := imgcodec.Decode(payload, c.prev)
	if err != nil {
		return nil, c.fail(err)
	}
	c.prev = frame
	fb := raster.NewFramebuffer(fw, fh)
	copy(fb.Color, frame)
	return fb, nil
}

// Capacity interrogates the render service.
func (c *Thin) Capacity() (rep transport.CapacityReport, err error) {
	if c.err != nil {
		return rep, c.err
	}
	if err = c.conn.Send(transport.MsgCapacityQuery, nil); err == nil {
		err = c.conn.ExpectJSON(transport.MsgCapacityReport, &rep)
	}
	return rep, c.fail(err)
}

// Close ends the session cleanly.
func (c *Thin) Close() error {
	if c.err != nil {
		return c.err
	}
	return c.fail(c.conn.Send(transport.MsgBye, nil))
}

// WritePNG saves a received frame — the PDA screenshots of Figure 2.
func WritePNG(w io.Writer, fb *raster.Framebuffer) error {
	return png.Encode(w, fb.ToImage())
}

// Active is an active render client: a render service without the
// service container, rendering only "to the screen" (here: to PNG).
type Active struct {
	svc  *renderservice.Service
	sess *renderservice.Session
	user string
}

// NewActive creates an active render client on the given device profile.
func NewActive(user string, dev device.Profile, workers int) *Active {
	return &Active{
		svc: renderservice.New(renderservice.Config{
			Name:    "active:" + user,
			Device:  dev,
			Workers: workers,
		}),
		user: user,
	}
}

// Subscribe attaches to a data service session over the socket and keeps
// the local replica synchronized; it blocks until the connection ends,
// so run it in a goroutine. ready is invoked once the bootstrap snapshot
// has been applied.
func (a *Active) Subscribe(rw io.ReadWriter, session string, ready func()) error {
	return a.svc.SubscribeToData(rw, session, func(sess *renderservice.Session) {
		a.sess = sess
		if ready != nil {
			ready()
		}
	})
}

// Session exposes the replica session (nil before the bootstrap).
func (a *Active) Session() *renderservice.Session { return a.sess }

// RenderPNG renders the replica locally and writes a PNG.
func (a *Active) RenderPNG(w io.Writer, width, height int) error {
	if a.sess == nil {
		return fmt.Errorf("client: active client not subscribed")
	}
	frame, err := a.sess.RenderFrame(width, height, a.user)
	if err != nil {
		return err
	}
	return WritePNG(w, frame.FB)
}
