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
// refuses that query and keeps serving.
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
			info, err := route(q.Session)
			if err == nil {
				err = conn.SendJSON(transport.MsgRouteReport, info)
			} else {
				err = conn.Refuse(err)
			}
			if err != nil {
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
func QueryRoute(conn *transport.Conn, session string) (info transport.RouteInfo, err error) {
	if err = conn.SendJSON(transport.MsgRouteQuery, transport.RouteQuery{Session: session}); err == nil {
		err = conn.ExpectJSON(transport.MsgRouteReport, &info)
	}
	if err != nil {
		return transport.RouteInfo{}, fmt.Errorf("gateway: route query: %w", err)
	}
	return info, nil
}
