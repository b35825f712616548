package uddi

import (
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/soap"
)

// The raw-envelope tests below speak to NewServer(reg).Dispatch directly,
// so they see exactly what a hostile or broken client could send: the
// typed Proxy methods cannot produce most of these bodies.

var dispatchT0 = time.Unix(7000, 0)

// seededRegistry holds one row in every table, so a request that should
// fault has something to damage if it does not.
func seededRegistry(t testing.TB) *Registry {
	t.Helper()
	r := NewRegistry()
	if _, err := r.AcquireLease("data:skull", "primary", time.Minute, dispatchT0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RegisterReplica(Replica{
		Session: "skull", Name: "ds-01", Region: "eu/a", AccessPoint: "tcp://h1:7000", Role: RolePrimary, Version: 3,
	}, time.Minute, dispatchT0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReportHealth("ds-01", HealthStorageDegraded, "wal poisoned", time.Minute, dispatchT0); err != nil {
		t.Fatal(err)
	}
	tm, err := r.SaveTModel("rave:data", "", "")
	if err != nil {
		t.Fatal(err)
	}
	biz, _ := r.SaveBusiness("RAVE", "")
	svc, _ := r.SaveService(biz.Key, "ds-01")
	if _, err := r.SaveBinding(svc.Key, "tcp://h1:7000", []string{tm.Key}); err != nil {
		t.Fatal(err)
	}
	return r
}

// tables is a deep copy of everything a Registry stores.
type tables struct {
	Counter    int
	TModels    map[string]TModel
	Businesses map[string]Business
	Services   map[string]Service
	Bindings   map[string]Binding
	Leases     map[string]Lease
	Replicas   map[string]map[string]Replica
	Health     map[string]NodeHealth
}

func snapshotTables(r *Registry) tables {
	r.mu.RLock()
	defer r.mu.RUnlock()
	reps := map[string]map[string]Replica{}
	for session, rows := range r.replicas {
		reps[session] = maps.Clone(rows)
	}
	return tables{
		Counter: r.counter, TModels: maps.Clone(r.tmodels), Businesses: maps.Clone(r.businesses),
		Services: maps.Clone(r.services), Bindings: maps.Clone(r.bindings),
		Leases: maps.Clone(r.leases), Replicas: reps, Health: maps.Clone(r.health),
	}
}

func envelope(t testing.TB, action string, params soap.Params) []byte {
	t.Helper()
	data, err := soap.Marshal(action, params)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func typedEnvelope(t testing.TB, action string, req any) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return envelope(t, action, soap.Params{bodyParam: string(body)})
}

// validEnvelopes is one well-formed request per registered action,
// against seededRegistry's rows.
func validEnvelopes(t testing.TB) map[string][]byte {
	ttl, now := time.Minute, dispatchT0.Add(time.Second)
	return map[string][]byte{
		"save_tModel":       envelope(t, "save_tModel", soap.Params{"name": "rave:render"}),
		"find_tModel":       envelope(t, "find_tModel", soap.Params{"name": "rave:data"}),
		"save_business":     envelope(t, "save_business", soap.Params{"name": "RAVE"}),
		"find_business":     envelope(t, "find_business", soap.Params{"name": "RAVE"}),
		"save_service":      envelope(t, "save_service", soap.Params{"businessKey": "uuid:business-000002", "name": "ds-02"}),
		"find_service":      envelope(t, "find_service", soap.Params{"businessKey": "uuid:business-000002"}),
		"save_binding":      envelope(t, "save_binding", soap.Params{"serviceKey": "uuid:service-000003", "accessPoint": "tcp://h2:7000"}),
		"delete_binding":    envelope(t, "delete_binding", soap.Params{"bindingKey": "uuid:binding-000004"}),
		"get_bindings":      envelope(t, "get_bindings", soap.Params{"serviceKey": "uuid:service-000003"}),
		"scan_accessPoints": envelope(t, "scan_accessPoints", soap.Params{"tModelKey": "uuid:tmodel-000001"}),
		"dump":              envelope(t, "dump", nil),

		"acquire_lease":  typedEnvelope(t, "acquire_lease", req(Lease{Service: "data:elle", Holder: "primary"}, ttl, now)),
		"renew_lease":    typedEnvelope(t, "renew_lease", req(Lease{Service: "data:skull", Holder: "primary", Epoch: 1}, ttl, now)),
		"transfer_lease": typedEnvelope(t, "transfer_lease", req(Lease{Service: "data:skull", Holder: "standby"}, ttl, now)),
		"get_lease":      typedEnvelope(t, "get_lease", req(Lease{Service: "data:skull"}, 0, now)),
		"release_lease":  typedEnvelope(t, "release_lease", Lease{Service: "data:skull", Holder: "primary", Epoch: 1}),

		"register_replica": typedEnvelope(t, "register_replica", req(Replica{Session: "skull", Name: "ds-02", Region: "us/a", Role: RoleReplica}, ttl, now)),
		"report_replica":   typedEnvelope(t, "report_replica", req(Replica{Session: "skull", Name: "ds-01", Version: 4}, ttl, now)),
		"drop_replica":     typedEnvelope(t, "drop_replica", Replica{Session: "skull", Name: "ds-01"}),
		"query_replicas":   typedEnvelope(t, "query_replicas", req(Replica{Session: "skull", Region: "eu"}, 0, now)),

		"report_health":  typedEnvelope(t, "report_health", req(NodeHealth{Name: "ds-01", State: HealthOK}, ttl, now)),
		"query_health":   typedEnvelope(t, "query_health", req(NodeHealth{Name: "ds-01"}, 0, now)),
		"degraded_nodes": typedEnvelope(t, "degraded_nodes", req(NodeHealth{}, 0, now)),
	}
}

// badBodies are typed-action bodies that must fault before any table is
// touched: every input check the per-field strconv coding used to make,
// in the form the JSON body gives it.
var badBodies = []struct{ why, action, body string }{
	{"empty body", "acquire_lease", ``},
	{"truncated JSON", "acquire_lease", `{"row":{"service":"data:skull","holder":"standby"},"ttl":6000`},
	{"trailing garbage", "renew_lease", `{"row":{"service":"data:skull","holder":"primary","epoch":1},"ttl":1,"now":1} x`},
	{"ttl as a string", "transfer_lease", `{"row":{"service":"data:skull","holder":"standby"},"ttl":"60s","now":7001000000000}`},
	{"now as a date string", "transfer_lease", `{"row":{"service":"data:skull","holder":"standby"},"ttl":60,"now":"1970-01-01T01:56:41Z"}`},
	{"fractional now", "get_lease", `{"row":{"service":"data:skull"},"now":7001.5}`},
	{"missing now", "transfer_lease", `{"row":{"service":"data:skull","holder":"standby"},"ttl":60000000000}`},
	{"null now", "report_replica", `{"row":{"session":"skull","name":"ds-01","version":9},"ttl":60000000000,"now":null}`},
	{"missing ttl", "transfer_lease", `{"row":{"service":"data:skull","holder":"standby"},"now":7001000000000}`},
	{"negative ttl", "report_replica", `{"row":{"session":"skull","name":"ds-01","version":9},"ttl":-5,"now":7001000000000}`},
	{"negative epoch", "renew_lease", `{"row":{"service":"data:skull","holder":"primary","epoch":-1},"ttl":60000000000,"now":7001000000000}`},
	{"oversized epoch", "renew_lease", `{"row":{"service":"data:skull","holder":"primary","epoch":18446744073709551616},"ttl":60000000000,"now":7001000000000}`},
	{"oversized now", "degraded_nodes", `{"row":{},"now":9223372036854775808}`},
	{"unknown role", "register_replica", `{"row":{"session":"skull","name":"ds-01","role":"witness"},"ttl":60000000000,"now":7001000000000}`},
	{"role as a number", "register_replica", `{"row":{"session":"skull","name":"ds-01","role":7},"ttl":60000000000,"now":7001000000000}`},
	{"unknown state", "report_health", `{"row":{"name":"ds-01","state":"limping"},"ttl":60000000000,"now":7001000000000}`},
	{"row as an array", "report_health", `{"row":["ds-01","ok"],"ttl":60000000000,"now":7001000000000}`},
	{"body as an array", "query_replicas", `[1,2,3]`},
	{"stale release", "release_lease", `{"service":"data:skull","holder":"primary","epoch":99}`},
	{"epoch as a string", "release_lease", `{"service":"data:skull","holder":"primary","epoch":"1"}`},
}

// checkDispatch is the contract every envelope — valid, malformed or
// hostile — must meet: Dispatch answers a well-formed envelope, and an
// answer that is a fault left every table as it was. It reports whether
// the answer was a fault.
func checkDispatch(t *testing.T, r *Registry, in []byte) bool {
	t.Helper()
	before := snapshotTables(r)
	reply, status := NewServer(r).Dispatch(in)
	action, _, err := soap.Unmarshal(reply)
	var fault *soap.Fault
	switch {
	case errors.As(err, &fault):
		if after := snapshotTables(r); !reflect.DeepEqual(before, after) {
			t.Fatalf("fault %q changed the registry:\nbefore %+v\nafter  %+v", fault.Reason, before, after)
		}
		return true
	case err != nil:
		t.Fatalf("reply is not a SOAP envelope (status %d): %v\n%s", status, err, reply)
	case status != http.StatusOK || !strings.HasSuffix(action, "Response"):
		t.Fatalf("non-fault reply %q with status %d", action, status)
	}
	return false
}

// TestDispatchSeedsValid keeps the fuzz seeds honest: every registered
// action has a seed, and each seed is accepted.
func TestDispatchSeedsValid(t *testing.T) {
	seeds := validEnvelopes(t)
	for _, action := range NewServer(NewRegistry()).Actions() {
		in, ok := seeds[action]
		if !ok {
			t.Errorf("no seed envelope for action %q", action)
			continue
		}
		if checkDispatch(t, seededRegistry(t), in) {
			t.Errorf("valid %s envelope faulted", action)
		}
	}
}

// TestTypedActionInputChecks: a body the typed decoder or the Registry
// method rejects is a fault, and the tables are untouched.
func TestTypedActionInputChecks(t *testing.T) {
	for _, c := range badBodies {
		in := envelope(t, c.action, soap.Params{bodyParam: c.body})
		if !checkDispatch(t, seededRegistry(t), in) {
			t.Errorf("%s: %s accepted %s", c.why, c.action, c.body)
		}
	}
}

// TestLeaseFaultsTypedForEveryAction: the proxy re-types lease faults in
// one place, so release_lease — which the per-action wrapping covered —
// and any future lease-checking action get errors.Is for free.
func TestLeaseFaultsTypedForEveryAction(t *testing.T) {
	_, ts := newTestRegistry(t)
	p := Connect(ts.URL)
	if _, err := p.AcquireLease("data:skull", "primary", time.Minute, dispatchT0); err != nil {
		t.Fatal(err)
	}
	if err := p.ReleaseLease("data:skull", "primary", 99); !errors.Is(err, ErrLeaseStale) {
		t.Errorf("ReleaseLease with a stale epoch: %v, want ErrLeaseStale", err)
	}
	if _, err := call[Lease](p, "acquire_lease", req(Lease{Service: "data:skull", Holder: "standby"}, time.Minute, dispatchT0)); !errors.Is(err, ErrLeaseHeld) {
		t.Errorf("raw typed call: %v, want ErrLeaseHeld", err)
	}
	var fault *soap.Fault
	if _, err := p.ReportReplica("skull", "ghost", 1, time.Minute, dispatchT0); !errors.As(err, &fault) || errors.Is(err, ErrLeaseStale) {
		t.Errorf("non-lease fault: %v, want a plain *soap.Fault", err)
	}
}

// TestInstantRoundTripsExactly: what a virtual clock hands out —
// time.Unix values, the epoch itself included — decodes == to what was
// sent, and the zero time stays zero.
func TestInstantRoundTripsExactly(t *testing.T) {
	for _, want := range []time.Time{{}, time.Unix(0, 0), time.Unix(0, 1), time.Unix(-5, 17), dispatchT0.Add(time.Nanosecond)} {
		data, err := json.Marshal(status[Lease]{Row: Lease{Service: "s", Expires: want}})
		if err != nil {
			t.Fatal(err)
		}
		var got status[Lease]
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		if got.Row.Expires != want {
			t.Errorf("%v crossed as %s and came back %v", want, data, got.Row.Expires)
		}
	}
}

// FuzzRegistryDispatch feeds arbitrary bytes to the registry's SOAP
// dispatcher: it must never panic, must always answer a well-formed
// envelope, and must leave every table unchanged when the answer is a
// fault.
func FuzzRegistryDispatch(f *testing.F) {
	for _, in := range validEnvelopes(f) {
		f.Add(in)
		f.Add(in[:len(in)/2])
	}
	for _, c := range badBodies {
		f.Add(envelope(f, c.action, soap.Params{bodyParam: c.body}))
	}
	f.Add(envelope(f, "register_replica", soap.Params{bodyParam: `{"row":{"session":"` + strings.Repeat("s", 1<<16) + `"}}`}))
	f.Add(envelope(f, "no_such_action", nil))
	f.Add([]byte("not xml at all"))
	f.Fuzz(func(t *testing.T, in []byte) {
		checkDispatch(t, seededRegistry(t), in)
	})
}
