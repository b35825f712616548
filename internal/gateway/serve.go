package gateway

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/transport"
)

// ServeRouteFunc answers route queries over one connection: thin
// clients send MsgRouteQuery{session} and get back MsgRouteReport with
// the owning node, its access point and the ownership lease epoch — then
// talk to the owner's data service directly. Routing is a separate,
// cheap protocol precisely so the gateway never sits on the frame path:
// it decides *where* work goes; the data services do the work. route is
// the resolver (ravegw's UDDI-scan-backed router); an error from it
// answers that query with MsgError and keeps serving.
//
// The loop exits cleanly on MsgBye or EOF. Unknown message types are
// skipped (older clients may probe with newer messages), mirroring the
// data-service loop's tolerance.
func ServeRouteFunc(rw io.ReadWriter, route func(session string) (transport.RouteInfo, error)) error {
	conn := transport.NewConn(rw)
	for {
		t, payload, err := conn.Receive()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		switch t {
		case transport.MsgRouteQuery:
			var q transport.RouteQuery
			if err := transport.DecodeJSON(payload, &q); err != nil {
				return err
			}
			info, rerr := route(q.Session)
			if rerr != nil {
				if err := conn.SendJSON(transport.MsgError, transport.ErrorInfo{Message: rerr.Error()}); err != nil {
					return err
				}
				continue
			}
			if err := conn.SendJSON(transport.MsgRouteReport, info); err != nil {
				return err
			}
		case transport.MsgBye:
			return nil
		default:
			// Tolerate unknown messages the way the data service does.
			_ = payload
		}
	}
}

// QueryRoute is the client side of the route protocol: one
// query/report exchange on an established connection.
func QueryRoute(conn *transport.Conn, session string) (transport.RouteInfo, error) {
	if err := conn.SendJSON(transport.MsgRouteQuery, transport.RouteQuery{Session: session}); err != nil {
		return transport.RouteInfo{}, err
	}
	t, payload, err := conn.Receive()
	if err != nil {
		return transport.RouteInfo{}, err
	}
	switch t {
	case transport.MsgRouteReport:
		var info transport.RouteInfo
		if err := transport.DecodeJSON(payload, &info); err != nil {
			return transport.RouteInfo{}, err
		}
		return info, nil
	case transport.MsgError:
		var e transport.ErrorInfo
		if err := transport.DecodeJSON(payload, &e); err != nil {
			return transport.RouteInfo{}, err
		}
		return transport.RouteInfo{}, fmt.Errorf("gateway: route query: %s", e.Message)
	default:
		return transport.RouteInfo{}, fmt.Errorf("gateway: route query answered with %s", t)
	}
}
