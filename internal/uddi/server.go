package uddi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/soap"
)

// listSep joins multi-valued SOAP parameters.
const listSep = "\n"

// NewServer exposes a registry over SOAP. The action set mirrors the
// UDDI v2 inquiry/publication API surface RAVE uses.
func NewServer(r *Registry) *soap.Server {
	s := soap.NewServer()

	s.Register("save_tModel", func(p soap.Params) (soap.Params, error) {
		t, err := r.SaveTModel(p["name"], p["description"], p["overviewURL"])
		if err != nil {
			return nil, err
		}
		return soap.Params{"tModelKey": t.Key, "name": t.Name}, nil
	})

	s.Register("find_tModel", func(p soap.Params) (soap.Params, error) {
		t, ok := r.FindTModel(p["name"])
		if !ok {
			return nil, fmt.Errorf("tModel %q not found", p["name"])
		}
		return soap.Params{"tModelKey": t.Key, "overviewURL": t.OverviewURL}, nil
	})

	s.Register("save_business", func(p soap.Params) (soap.Params, error) {
		b, err := r.SaveBusiness(p["name"], p["description"])
		if err != nil {
			return nil, err
		}
		return soap.Params{"businessKey": b.Key}, nil
	})

	s.Register("find_business", func(p soap.Params) (soap.Params, error) {
		found := r.FindBusinesses(p["name"])
		keys := make([]string, len(found))
		names := make([]string, len(found))
		for i, b := range found {
			keys[i] = b.Key
			names[i] = b.Name
		}
		return soap.Params{
			"businessKeys": strings.Join(keys, listSep),
			"names":        strings.Join(names, listSep),
		}, nil
	})

	s.Register("save_service", func(p soap.Params) (soap.Params, error) {
		svc, err := r.SaveService(p["businessKey"], p["name"])
		if err != nil {
			return nil, err
		}
		return soap.Params{"serviceKey": svc.Key}, nil
	})

	s.Register("find_service", func(p soap.Params) (soap.Params, error) {
		found := r.ServicesOf(p["businessKey"])
		keys := make([]string, len(found))
		names := make([]string, len(found))
		for i, svc := range found {
			keys[i] = svc.Key
			names[i] = svc.Name
		}
		return soap.Params{
			"serviceKeys": strings.Join(keys, listSep),
			"names":       strings.Join(names, listSep),
		}, nil
	})

	s.Register("save_binding", func(p soap.Params) (soap.Params, error) {
		var tms []string
		if p["tModelKeys"] != "" {
			tms = strings.Split(p["tModelKeys"], listSep)
		}
		b, err := r.SaveBinding(p["serviceKey"], p["accessPoint"], tms)
		if err != nil {
			return nil, err
		}
		return soap.Params{"bindingKey": b.Key}, nil
	})

	s.Register("delete_binding", func(p soap.Params) (soap.Params, error) {
		if err := r.DeleteBinding(p["bindingKey"]); err != nil {
			return nil, err
		}
		return soap.Params{}, nil
	})

	s.Register("get_bindings", func(p soap.Params) (soap.Params, error) {
		found := r.BindingsOf(p["serviceKey"])
		points := make([]string, len(found))
		for i, b := range found {
			points[i] = b.AccessPoint
		}
		return soap.Params{"accessPoints": strings.Join(points, listSep)}, nil
	})

	s.Register("scan_accessPoints", func(p soap.Params) (soap.Params, error) {
		points := r.AccessPoints(p["tModelKey"])
		return soap.Params{"accessPoints": strings.Join(points, listSep)}, nil
	})

	// The lease, replica-index and health tables are not UDDI v2: each
	// of their actions is one typed call (see handle) onto the Registry
	// method of the same name.
	handle(s, "acquire_lease", func(q request[Lease]) (Lease, error) {
		return r.AcquireLease(q.Row.Service, q.Row.Holder, q.TTL, q.Now.Time)
	})
	handle(s, "renew_lease", func(q request[Lease]) (Lease, error) {
		return r.RenewLease(q.Row.Service, q.Row.Holder, q.Row.Epoch, q.TTL, q.Now.Time)
	})
	handle(s, "transfer_lease", func(q request[Lease]) (Lease, error) {
		return r.TransferLease(q.Row.Service, q.Row.Holder, q.TTL, q.Now.Time)
	})
	handle(s, "get_lease", func(q request[Lease]) (status[Lease], error) {
		l, live, err := r.GetLease(q.Row.Service, q.Now.Time)
		return status[Lease]{l, live}, err
	})
	handle(s, "release_lease", func(l Lease) (struct{}, error) {
		return struct{}{}, r.ReleaseLease(l.Service, l.Holder, l.Epoch)
	})

	handle(s, "register_replica", func(q request[Replica]) (Replica, error) {
		return r.RegisterReplica(q.Row, q.TTL, q.Now.Time)
	})
	handle(s, "report_replica", func(q request[Replica]) (Replica, error) {
		return r.ReportReplica(q.Row.Session, q.Row.Name, q.Row.Version, q.TTL, q.Now.Time)
	})
	handle(s, "drop_replica", func(rep Replica) (struct{}, error) {
		return struct{}{}, r.DropReplica(rep.Session, rep.Name)
	})
	// The row names the session to list and the region to rank from.
	handle(s, "query_replicas", func(q request[Replica]) ([]Replica, error) {
		return r.QueryReplicas(q.Row.Session, q.Row.Region, q.Now.Time), nil
	})

	handle(s, "report_health", func(q request[NodeHealth]) (NodeHealth, error) {
		return r.ReportHealth(q.Row.Name, q.Row.State, q.Row.Detail, q.TTL, q.Now.Time)
	})
	handle(s, "query_health", func(q request[NodeHealth]) (status[NodeHealth], error) {
		row, ok := r.QueryHealth(q.Row.Name, q.Now.Time)
		return status[NodeHealth]{row, ok}, nil
	})
	handle(s, "degraded_nodes", func(q request[NodeHealth]) ([]string, error) {
		return r.DegradedNodes(q.Now.Time), nil
	})

	s.Register("dump", func(p soap.Params) (soap.Params, error) {
		data, err := json.Marshal(r.Dump())
		if err != nil {
			return nil, err
		}
		return soap.Params{"entries": string(data)}, nil
	})

	return s
}

// Proxy is a client-side handle on a remote UDDI registry. Creating the
// proxy and performing the business/service/binding scans is the "full
// UDDI bootstrap" Table 5 times at ~4-5 s on 2004 middleware; once live,
// ScanAccessPoints is the ~0.7 s incremental check.
type Proxy struct {
	client *soap.Client
	// tmodelKeys caches name->key so incremental scans are one call.
	tmodelKeys map[string]string
}

// Connect returns a proxy for the registry at the SOAP endpoint.
func Connect(endpoint string) *Proxy {
	return &Proxy{
		client:     &soap.Client{Endpoint: endpoint},
		tmodelKeys: map[string]string{},
	}
}

// ConnectHTTP returns a proxy whose SOAP calls go through the given HTTP
// client — the hook chaos tests use to make the registry unreachable or
// slow (a failing RoundTripper) while recruitment retries.
func ConnectHTTP(endpoint string, hc *http.Client) *Proxy {
	return &Proxy{
		client:     &soap.Client{Endpoint: endpoint, HTTPClient: hc},
		tmodelKeys: map[string]string{},
	}
}

// EnsureTModel registers (or resolves) a technical model and caches its
// key.
func (p *Proxy) EnsureTModel(name, description, overviewURL string) (string, error) {
	if key, ok := p.tmodelKeys[name]; ok {
		return key, nil
	}
	res, err := p.client.Call("save_tModel", soap.Params{
		"name": name, "description": description, "overviewURL": overviewURL,
	})
	if err != nil {
		return "", err
	}
	p.tmodelKeys[name] = res["tModelKey"]
	return res["tModelKey"], nil
}

// RegisterService publishes a service instance: business, service and
// binding in one go. Returns the binding key for later removal.
func (p *Proxy) RegisterService(business, service, accessPoint, tmodelName string) (string, error) {
	tmKey, err := p.EnsureTModel(tmodelName, "", "")
	if err != nil {
		return "", err
	}
	bres, err := p.client.Call("save_business", soap.Params{"name": business})
	if err != nil {
		return "", err
	}
	sres, err := p.client.Call("save_service", soap.Params{
		"businessKey": bres["businessKey"], "name": service,
	})
	if err != nil {
		return "", err
	}
	bind, err := p.client.Call("save_binding", soap.Params{
		"serviceKey":  sres["serviceKey"],
		"accessPoint": accessPoint,
		"tModelKeys":  tmKey,
	})
	if err != nil {
		return "", err
	}
	return bind["bindingKey"], nil
}

// Unregister removes a binding by key.
func (p *Proxy) Unregister(bindingKey string) error {
	_, err := p.client.Call("delete_binding", soap.Params{"bindingKey": bindingKey})
	return err
}

// splitList splits a multi-valued SOAP parameter.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, listSep)
}

// Bootstrap performs the full discovery sequence the paper times
// (§5.5): find the business representing the project, scan its services,
// then collect the access points advertising the wanted tModel. It also
// warms the tModel cache so subsequent ScanAccessPoints calls are a
// single request.
func (p *Proxy) Bootstrap(business, tmodelName string) ([]string, error) {
	tm, err := p.client.Call("find_tModel", soap.Params{"name": tmodelName})
	if err != nil {
		return nil, fmt.Errorf("uddi: bootstrap tModel: %w", err)
	}
	p.tmodelKeys[tmodelName] = tm["tModelKey"]

	bres, err := p.client.Call("find_business", soap.Params{"name": business})
	if err != nil {
		return nil, fmt.Errorf("uddi: bootstrap business: %w", err)
	}
	bizKeys := splitList(bres["businessKeys"])
	if len(bizKeys) == 0 {
		return nil, fmt.Errorf("uddi: business %q not found", business)
	}

	var points []string
	for _, bk := range bizKeys {
		sres, err := p.client.Call("find_service", soap.Params{"businessKey": bk})
		if err != nil {
			return nil, fmt.Errorf("uddi: bootstrap services: %w", err)
		}
		for _, sk := range splitList(sres["serviceKeys"]) {
			gres, err := p.client.Call("get_bindings", soap.Params{"serviceKey": sk})
			if err != nil {
				return nil, fmt.Errorf("uddi: bootstrap bindings: %w", err)
			}
			points = append(points, splitList(gres["accessPoints"])...)
		}
	}
	// Filter to the wanted tModel with one scan, intersected with the
	// business's points.
	scan, err := p.ScanAccessPoints(tmodelName)
	if err != nil {
		return nil, err
	}
	inScan := map[string]bool{}
	for _, ap := range scan {
		inScan[ap] = true
	}
	var out []string
	seen := map[string]bool{}
	for _, ap := range points {
		if inScan[ap] && !seen[ap] {
			out = append(out, ap)
			seen[ap] = true
		}
	}
	return out, nil
}

// ScanAccessPoints is the incremental check: one call returning current
// access points for a technical model, "to check for service removal or
// insertion" (§5.5). The tModel key must already be cached (Bootstrap or
// EnsureTModel); otherwise one extra resolution call is made.
func (p *Proxy) ScanAccessPoints(tmodelName string) ([]string, error) {
	key, ok := p.tmodelKeys[tmodelName]
	if !ok {
		res, err := p.client.Call("find_tModel", soap.Params{"name": tmodelName})
		if err != nil {
			return nil, err
		}
		key = res["tModelKey"]
		p.tmodelKeys[tmodelName] = key
	}
	res, err := p.client.Call("scan_accessPoints", soap.Params{"tModelKey": key})
	if err != nil {
		return nil, err
	}
	return splitList(res["accessPoints"]), nil
}

// Typed control-plane calls. The lease, replica-index and health tables
// are this registry's own extensions, spoken only by Proxy, so instead of
// a parameter per field each action carries one JSON document per
// direction in the envelope's "body" parameter: handle decodes the
// request and encodes the reply on the server, call does the reverse on
// the proxy, and nothing else in the package touches the wire form.
const bodyParam = "body"

// instant is a time.Time that crosses as integer Unix nanoseconds (null
// when zero). The registry has no clock of its own — callers send their
// reading and get expiries computed from it — so an instant must decode
// to exactly the time.Unix value that was sent: a virtual-clock reading
// round-trips and == on a returned row holds.
type instant struct{ time.Time }

// MarshalJSON implements json.Marshaler.
func (t instant) MarshalJSON() ([]byte, error) {
	if t.IsZero() {
		return []byte("null"), nil
	}
	return json.Marshal(t.UnixNano())
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *instant) UnmarshalJSON(b []byte) error {
	var nanos *int64
	if err := json.Unmarshal(b, &nanos); err != nil || nanos == nil {
		return err
	}
	t.Time = time.Unix(0, *nanos)
	return nil
}

// Lease and Replica put their expiry on the wire as an instant and every
// other field as its json tag says; the local twin type sheds the
// methods so the inner Marshal/Unmarshal does not recurse. (A health
// row's expiry stays at the registry: no remote caller reads it.)

// MarshalJSON implements json.Marshaler.
func (l Lease) MarshalJSON() ([]byte, error) {
	type row Lease
	return json.Marshal(struct {
		row
		Expires instant `json:"expires"`
	}{row(l), instant{l.Expires}})
}

// UnmarshalJSON implements json.Unmarshaler.
func (l *Lease) UnmarshalJSON(b []byte) error {
	type row Lease
	w := struct {
		*row
		Expires instant `json:"expires"`
	}{row: (*row)(l)}
	err := json.Unmarshal(b, &w)
	l.Expires = w.Expires.Time
	return err
}

// MarshalJSON implements json.Marshaler.
func (rep Replica) MarshalJSON() ([]byte, error) {
	type row Replica
	return json.Marshal(struct {
		row
		Expires instant `json:"expires"`
	}{row(rep), instant{rep.Expires}})
}

// UnmarshalJSON implements json.Unmarshaler.
func (rep *Replica) UnmarshalJSON(b []byte) error {
	type row Replica
	w := struct {
		*row
		Expires instant `json:"expires"`
	}{row: (*row)(rep)}
	err := json.Unmarshal(b, &w)
	rep.Expires = w.Expires.Time
	return err
}

// request is the body of every action but the two deletes (which send
// the bare row): the row the action is about — as much of it as the
// Registry method takes — and the caller's ttl and clock reading.
type request[Row any] struct {
	Row Row           `json:"row"`
	TTL time.Duration `json:"ttl,omitempty"`
	Now instant       `json:"now"`
}

func req[Row any](row Row, ttl time.Duration, now time.Time) request[Row] {
	return request[Row]{row, ttl, instant{now}}
}

// check is handle's input check: a missing clock reading must fault,
// not be taken for year 1.
func (q request[Row]) check() error {
	if q.Now.IsZero() {
		return fmt.Errorf("missing now")
	}
	return nil
}

// status is a lookup's reply: the row (zero when there is none) and
// whether it is live at the caller's now.
type status[Row any] struct {
	Row  Row  `json:"row"`
	Live bool `json:"live"`
}

// handle registers a typed action. A body that does not decode into
// Req, or a request missing its clock reading, faults before fn — and so
// before any table — is reached; fn's own error (a non-positive ttl, an
// unknown role or state, a held or stale lease) faults the same way.
func handle[Req, Resp any](s *soap.Server, action string, fn func(Req) (Resp, error)) {
	s.Register(action, func(p soap.Params) (soap.Params, error) {
		var req Req
		err := json.Unmarshal([]byte(p[bodyParam]), &req)
		if c, ok := any(req).(interface{ check() error }); ok && err == nil {
			err = c.check()
		}
		if err != nil {
			return nil, fmt.Errorf("uddi: %s: bad request: %w", action, err)
		}
		resp, err := fn(req)
		if err != nil {
			return nil, err
		}
		data, err := json.Marshal(resp)
		if err != nil {
			return nil, err
		}
		return soap.Params{bodyParam: string(data)}, nil
	})
}

// call performs a typed action against the registry. Lease faults cross
// SOAP as strings; they are re-typed here, for every action, so callers
// can errors.Is on ErrLeaseHeld and ErrLeaseStale.
func call[Resp any](p *Proxy, action string, req any) (Resp, error) {
	var resp Resp
	data, err := json.Marshal(req)
	if err != nil {
		return resp, err
	}
	res, err := p.client.Call(action, soap.Params{bodyParam: string(data)})
	if err != nil {
		for _, typed := range []error{ErrLeaseHeld, ErrLeaseStale} {
			if strings.Contains(err.Error(), typed.Error()) {
				return resp, fmt.Errorf("%w: %v", typed, err)
			}
		}
		return resp, err
	}
	if err := json.Unmarshal([]byte(res[bodyParam]), &resp); err != nil {
		return resp, fmt.Errorf("uddi: %s: decode reply: %w", action, err)
	}
	return resp, nil
}

// AcquireLease claims a lease through the registry (see
// Registry.AcquireLease for the epoch rules).
func (p *Proxy) AcquireLease(service, holder string, ttl time.Duration, now time.Time) (Lease, error) {
	return call[Lease](p, "acquire_lease", req(Lease{Service: service, Holder: holder}, ttl, now))
}

// RenewLease extends a held lease; ErrLeaseStale means this holder has
// been deposed and must stand down.
func (p *Proxy) RenewLease(service, holder string, epoch uint64, ttl time.Duration, now time.Time) (Lease, error) {
	return call[Lease](p, "renew_lease", req(Lease{Service: service, Holder: holder, Epoch: epoch}, ttl, now))
}

// TransferLease reassigns a lease to a new holder at the next epoch
// (see Registry.TransferLease for the control-plane semantics).
func (p *Proxy) TransferLease(service, holder string, ttl time.Duration, now time.Time) (Lease, error) {
	return call[Lease](p, "transfer_lease", req(Lease{Service: service, Holder: holder}, ttl, now))
}

// GetLease polls a lease; live reports whether it is unexpired at now.
// A lease nobody ever claimed comes back as the zero Lease.
func (p *Proxy) GetLease(service string, now time.Time) (Lease, bool, error) {
	f, err := call[status[Lease]](p, "get_lease", req(Lease{Service: service}, 0, now))
	return f.Row, f.Live, err
}

// ReleaseLease drops a held lease (clean primary shutdown).
func (p *Proxy) ReleaseLease(service, holder string, epoch uint64) error {
	_, err := call[struct{}](p, "release_lease", Lease{Service: service, Holder: holder, Epoch: epoch})
	return err
}

// RegisterReplica upserts a replica-location row through the registry
// (see Registry.RegisterReplica for the demotion rule).
func (p *Proxy) RegisterReplica(rep Replica, ttl time.Duration, now time.Time) (Replica, error) {
	return call[Replica](p, "register_replica", req(rep, ttl, now))
}

// ReportReplica refreshes a row's applied version and TTL — the
// heartbeat path.
func (p *Proxy) ReportReplica(session, name string, version uint64, ttl time.Duration, now time.Time) (Replica, error) {
	return call[Replica](p, "report_replica", req(Replica{Session: session, Name: name, Version: version}, ttl, now))
}

// DropReplica removes a row (clean detach).
func (p *Proxy) DropReplica(session, name string) error {
	_, err := call[struct{}](p, "drop_replica", Replica{Session: session, Name: name})
	return err
}

// QueryReplicas lists the session's live replica rows nearest-first
// from the caller's region (see Registry.QueryReplicas for the order).
func (p *Proxy) QueryReplicas(session, fromRegion string, now time.Time) ([]Replica, error) {
	return call[[]Replica](p, "query_replicas", req(Replica{Session: session, Region: fromRegion}, 0, now))
}

// ReportHealth upserts the caller's node-health row — sent with every
// heartbeat alongside replica reports.
func (p *Proxy) ReportHealth(name, state, detail string, ttl time.Duration, now time.Time) error {
	_, err := call[NodeHealth](p, "report_health", req(NodeHealth{Name: name, State: state, Detail: detail}, ttl, now))
	return err
}

// QueryHealth fetches a node's live health row; ok is false when the
// node never reported or its row lapsed.
func (p *Proxy) QueryHealth(name string, now time.Time) (NodeHealth, bool, error) {
	f, err := call[status[NodeHealth]](p, "query_health", req(NodeHealth{Name: name}, 0, now))
	return f.Row, f.Live, err
}

// DegradedNodes lists nodes currently reporting storage degradation.
func (p *Proxy) DegradedNodes(now time.Time) ([]string, error) {
	return call[[]string](p, "degraded_nodes", req(NodeHealth{}, 0, now))
}

// DumpEntries fetches the registry tree for the browser GUI.
func (p *Proxy) DumpEntries() ([]Entry, error) {
	res, err := p.client.Call("dump", nil)
	if err != nil {
		return nil, err
	}
	var out []Entry
	if err := json.Unmarshal([]byte(res["entries"]), &out); err != nil {
		return nil, fmt.Errorf("uddi: decode dump: %w", err)
	}
	return out, nil
}
