// Package example exercises the deadlineprop rule on the
// request-forwarding shapes the services use: handlers holding an
// absolute deadline constructing downstream wire requests.
package example

import "time"

// RenderRequest mirrors the wire request shape: any struct with a
// DeadlineNanos field is under the rule.
type RenderRequest struct {
	W, H          int
	DeadlineNanos int64
}

// RelayedRequest is a second request shape.
type RelayedRequest struct {
	X, Y, W, H    int
	DeadlineNanos int64
}

type conn struct{}

func (c *conn) send(v interface{}) error { return nil }

// dropped receives the frame deadline and builds the downstream request
// without it: admission control downstream sees "no deadline" and
// renders late work.
func dropped(c *conn, deadline time.Time) error {
	return c.send(RenderRequest{W: 64, H: 64}) // want `request constructed without the handler's deadline`
}

// zeroed sets the field to literal zero, which is the same drop.
func zeroed(c *conn, deadline time.Time) error {
	return c.send(RelayedRequest{W: 32, H: 32, DeadlineNanos: 0}) // want `request constructed without the handler's deadline`
}

// droppedFromNanos holds the deadline in wire form (int64) and still
// drops it.
func droppedFromNanos(c *conn, deadlineNanos int64) error {
	req := &RenderRequest{W: 8, H: 8} // want `request constructed without the handler's deadline`
	return c.send(req)
}

// forwarded converts and forwards: the compliant shape.
func forwarded(c *conn, deadline time.Time) error {
	return c.send(RenderRequest{W: 64, H: 64, DeadlineNanos: deadline.UnixNano()})
}

// relayed receives a decoded request and forwards its deadline onto the
// next hop.
func relayed(c *conn, req RenderRequest) error {
	return c.send(RelayedRequest{W: req.W, H: req.H, DeadlineNanos: req.DeadlineNanos})
}

// checked validates expiry itself before the expensive work, so the
// downstream request may omit the deadline: late work was already shed
// at this hop.
func checked(c *conn, deadline time.Time, now time.Time) error {
	if now.After(deadline) {
		return nil
	}
	return c.send(RenderRequest{W: 64, H: 64})
}

// checkedNanos compares in wire form.
func checkedNanos(c *conn, deadlineNanos, nowNanos int64) error {
	if nowNanos >= deadlineNanos {
		return nil
	}
	return c.send(RelayedRequest{W: 16, H: 16})
}

// noDeadline holds no deadline: constructing a bare request is the
// caller's responsibility to fill, not this function's drop.
func noDeadline(c *conn, w, h int) error {
	return c.send(RenderRequest{W: w, H: h})
}

// constructionOnly builds a request into a local: the request-typed
// local is the construction under judgment, not a deadline source, so
// the function does not count as deadline-carrying.
func constructionOnly(c *conn, w, h int) error {
	req := RenderRequest{W: w, H: h}
	return c.send(req)
}

// annotated is the escape hatch for a construction whose deadline
// handling the analyzer cannot see.
func annotated(c *conn, deadline time.Time) error {
	//lint:allow deadlineprop: deadline stamped by the transport layer on send
	return c.send(RenderRequest{W: 4, H: 4})
}
