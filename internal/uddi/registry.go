// Package uddi implements the service registry RAVE discovers resources
// through (§3.2.2, §4.3): a UDDI v2-style store of businesses, services,
// binding templates (access points) and technical models (tModels), the
// paper's jUDDI / IBM test registry / Welsh e-Science Centre registry
// roles. It provides both an in-process Registry and a SOAP server plus
// client proxy, including the two lookup paths Table 5 times: the full
// bootstrap (proxy creation, business scan, service scan, access-point
// scan) and the cheap incremental access-point scan used once a proxy is
// live.
package uddi

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// TModel is a technical model: a named API contract, typically pointing
// at a WSDL document. Services advertising the same tModel "will have the
// same API and underlying behaviour" (§4.3).
type TModel struct {
	Key         string
	Name        string
	Description string
	OverviewURL string
}

// Business is a business entity (e.g. "RAVE" at a host or project).
type Business struct {
	Key         string
	Name        string
	Description string
}

// Service is a business service under a business entity.
type Service struct {
	Key         string
	BusinessKey string
	Name        string
}

// Binding is a binding template: a service's access point plus the
// tModels it implements.
type Binding struct {
	Key         string
	ServiceKey  string
	AccessPoint string
	TModelKeys  []string
}

// Registry is an in-memory UDDI registry, safe for concurrent use.
type Registry struct {
	mu         sync.RWMutex
	counter    int
	tmodels    map[string]TModel // by key
	businesses map[string]Business
	services   map[string]Service
	bindings   map[string]Binding
	leases     map[string]Lease              // by logical service name
	replicas   map[string]map[string]Replica // session → replica name → row
	health     map[string]NodeHealth         // node name → health row
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		tmodels:    map[string]TModel{},
		businesses: map[string]Business{},
		services:   map[string]Service{},
		bindings:   map[string]Binding{},
		leases:     map[string]Lease{},
		replicas:   map[string]map[string]Replica{},
		health:     map[string]NodeHealth{},
	}
}

// key mints a deterministic UDDI-style key.
func (r *Registry) key(kind string) string {
	r.counter++
	return fmt.Sprintf("uuid:%s-%06d", kind, r.counter)
}

// SaveTModel registers (or finds, by name) a technical model.
func (r *Registry) SaveTModel(name, description, overviewURL string) (TModel, error) {
	if name == "" {
		return TModel{}, fmt.Errorf("uddi: tModel name required")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.tmodels {
		if t.Name == name {
			return t, nil
		}
	}
	t := TModel{Key: r.key("tmodel"), Name: name, Description: description, OverviewURL: overviewURL}
	r.tmodels[t.Key] = t
	return t, nil
}

// FindTModel looks a technical model up by exact name.
func (r *Registry) FindTModel(name string) (TModel, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, t := range r.tmodels {
		if t.Name == name {
			return t, true
		}
	}
	return TModel{}, false
}

// SaveBusiness registers (or finds, by name) a business entity.
func (r *Registry) SaveBusiness(name, description string) (Business, error) {
	if name == "" {
		return Business{}, fmt.Errorf("uddi: business name required")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range r.businesses {
		if b.Name == name {
			return b, nil
		}
	}
	b := Business{Key: r.key("business"), Name: name, Description: description}
	r.businesses[b.Key] = b
	return b, nil
}

// FindBusinesses returns businesses whose names contain the query
// (case-insensitive), sorted by name. An empty query returns all.
func (r *Registry) FindBusinesses(query string) []Business {
	r.mu.RLock()
	defer r.mu.RUnlock()
	q := strings.ToLower(query)
	var out []Business
	for _, b := range r.businesses {
		if q == "" || strings.Contains(strings.ToLower(b.Name), q) {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SaveService registers (or finds, by name under the business) a service.
func (r *Registry) SaveService(businessKey, name string) (Service, error) {
	if name == "" {
		return Service{}, fmt.Errorf("uddi: service name required")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.businesses[businessKey]; !ok {
		return Service{}, fmt.Errorf("uddi: business %q not found", businessKey)
	}
	for _, s := range r.services {
		if s.BusinessKey == businessKey && s.Name == name {
			return s, nil
		}
	}
	s := Service{Key: r.key("service"), BusinessKey: businessKey, Name: name}
	r.services[s.Key] = s
	return s, nil
}

// ServicesOf lists a business's services sorted by name.
func (r *Registry) ServicesOf(businessKey string) []Service {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Service
	for _, s := range r.services {
		if s.BusinessKey == businessKey {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SaveBinding registers an access point for a service. Re-registering the
// same access point under the same service updates its tModels.
func (r *Registry) SaveBinding(serviceKey, accessPoint string, tmodelKeys []string) (Binding, error) {
	if accessPoint == "" {
		return Binding{}, fmt.Errorf("uddi: access point required")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.services[serviceKey]; !ok {
		return Binding{}, fmt.Errorf("uddi: service %q not found", serviceKey)
	}
	for _, t := range tmodelKeys {
		if _, ok := r.tmodels[t]; !ok {
			return Binding{}, fmt.Errorf("uddi: tModel %q not found", t)
		}
	}
	for key, b := range r.bindings {
		if b.ServiceKey == serviceKey && b.AccessPoint == accessPoint {
			b.TModelKeys = append([]string(nil), tmodelKeys...)
			r.bindings[key] = b
			return b, nil
		}
	}
	b := Binding{
		Key:         r.key("binding"),
		ServiceKey:  serviceKey,
		AccessPoint: accessPoint,
		TModelKeys:  append([]string(nil), tmodelKeys...),
	}
	r.bindings[b.Key] = b
	return b, nil
}

// DeleteBinding removes a binding (service removal or shutdown).
func (r *Registry) DeleteBinding(key string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.bindings[key]; !ok {
		return fmt.Errorf("uddi: binding %q not found", key)
	}
	delete(r.bindings, key)
	return nil
}

// BindingsOf lists a service's bindings sorted by access point.
func (r *Registry) BindingsOf(serviceKey string) []Binding {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Binding
	for _, b := range r.bindings {
		if b.ServiceKey == serviceKey {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AccessPoint < out[j].AccessPoint })
	return out
}

// AccessPoints returns all access points advertising the given tModel,
// sorted — the single-call incremental scan the paper keeps a live proxy
// around for ("the UDDI proxy can be kept live and ... the simpler check
// of scanning the access points", §5.5).
func (r *Registry) AccessPoints(tmodelKey string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for _, b := range r.bindings {
		for _, t := range b.TModelKeys {
			if t == tmodelKey {
				out = append(out, b.AccessPoint)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// Entry is one row of a registry dump: the Figure 4 browser's tree.
type Entry struct {
	Business    string   `json:"business"`
	Service     string   `json:"service"`
	AccessPoint string   `json:"access_point"`
	TModels     []string `json:"tmodels"`
}

// Dump lists every binding with its business/service context, sorted, for
// the registry browser GUI.
func (r *Registry) Dump() []Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Entry
	for _, b := range r.bindings {
		svc := r.services[b.ServiceKey]
		biz := r.businesses[svc.BusinessKey]
		var tms []string
		for _, tk := range b.TModelKeys {
			tms = append(tms, r.tmodels[tk].Name)
		}
		sort.Strings(tms)
		out = append(out, Entry{
			Business:    biz.Name,
			Service:     svc.Name,
			AccessPoint: b.AccessPoint,
			TModels:     tms,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Business != out[j].Business {
			return out[i].Business < out[j].Business
		}
		if out[i].Service != out[j].Service {
			return out[i].Service < out[j].Service
		}
		return out[i].AccessPoint < out[j].AccessPoint
	})
	return out
}
