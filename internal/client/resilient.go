package client

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/raster"
	"repro/internal/retry"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// ErrConnectionLost reports a render-service stream that died without
// an explicit Bye — a bare EOF mid-session, a truncated frame, a killed
// link. It is a reconnect signal, never a clean shutdown: the PDA's
// render service crashing must not look like the user closing the app.
var ErrConnectionLost = errors.New("client: render connection lost without bye")

// RefusedError is an application-level refusal relayed by the render
// service (e.g. a bad frame size). The connection is healthy; resilient
// wrappers surface it, and a typed decline, without reconnecting.
type RefusedError = transport.Refusal

// ResilientThin is a thin client that survives render-service failures:
// when an operation fails on a lost connection it redials with backoff,
// redoes the hello handshake, replays the last camera, and retries the
// operation. The paper's PDA scenario over flaky wireless, made honest.
type ResilientThin struct {
	dial    transport.Dialer
	name    string
	session string
	policy  retry.Policy
	clock   vclock.Clock

	thin    *Thin
	rw      io.ReadWriteCloser
	lastCam *raster.Camera
}

// DialThinResilient connects (retrying per policy) and returns the
// resilient client. A zero policy uses retry.DefaultPolicy.
func DialThinResilient(ctx context.Context, dial transport.Dialer, name, session string, policy retry.Policy, clock vclock.Clock) (*ResilientThin, error) {
	if clock == nil {
		clock = vclock.Real{}
	}
	r := &ResilientThin{dial: dial, name: name, session: session, policy: policy, clock: clock}
	if err := r.reconnect(ctx); err != nil {
		return nil, err
	}
	return r, nil
}

// reconnect dials and re-handshakes with backoff until it succeeds or
// the retry budget (or ctx) is exhausted.
func (r *ResilientThin) reconnect(ctx context.Context) error {
	if r.rw != nil {
		r.rw.Close()
		r.rw, r.thin = nil, nil
	}
	err := retry.Do(ctx, r.clock, r.policy, func() error {
		rw, err := r.dial()
		if err != nil {
			return err
		}
		thin, err := DialThin(rw, r.name, r.session)
		if err == nil && r.lastCam != nil {
			err = thin.SetCamera(*r.lastCam)
		}
		if err != nil {
			rw.Close()
			return err
		}
		r.rw, r.thin = rw, thin
		return nil
	})
	if err != nil {
		return fmt.Errorf("client: reconnect: %w", err)
	}
	return nil
}

// do runs op, reconnecting and retrying when the connection is lost. A
// refusal or a decline was read off a healthy stream and passes through
// untouched.
func (r *ResilientThin) do(ctx context.Context, op func(*Thin) error) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := op(r.thin)
		if err == nil {
			return nil
		}
		if answered(err) {
			return err
		}
		// Anything else is a dead or desynced stream: a bare EOF, a
		// truncated or corrupt frame, a killed link. Reconnect and redo.
		if err := r.reconnect(ctx); err != nil {
			return fmt.Errorf("%w: %v", ErrConnectionLost, err)
		}
	}
}

// SetCamera updates the camera, remembering it for replay after any
// reconnect.
func (r *ResilientThin) SetCamera(ctx context.Context, cam raster.Camera) error {
	r.lastCam = &cam
	return r.do(ctx, func(t *Thin) error { return t.SetCamera(cam) })
}

// RequestFrame fetches one frame, reconnecting as needed.
func (r *ResilientThin) RequestFrame(ctx context.Context, w, h int, codec string) (*raster.Framebuffer, error) {
	var fb *raster.Framebuffer
	err := r.do(ctx, func(t *Thin) error {
		var err error
		fb, err = t.RequestFrame(w, h, codec)
		return err
	})
	return fb, err
}

// Capacity interrogates the render service, reconnecting as needed.
func (r *ResilientThin) Capacity(ctx context.Context) (transport.CapacityReport, error) {
	var rep transport.CapacityReport
	err := r.do(ctx, func(t *Thin) error {
		var err error
		rep, err = t.Capacity()
		return err
	})
	return rep, err
}

// Close says Bye and closes the stream.
func (r *ResilientThin) Close() error {
	if r.thin == nil {
		return nil
	}
	err := r.thin.Close()
	if r.rw != nil {
		r.rw.Close()
	}
	r.thin, r.rw = nil, nil
	return err
}
