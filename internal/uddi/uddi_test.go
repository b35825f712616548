package uddi

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/wsdl"
)

func TestRegistryTModelIdempotent(t *testing.T) {
	r := NewRegistry()
	t1, err := r.SaveTModel(wsdl.RenderServicePortType, "render API", "http://w/wsdl")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := r.SaveTModel(wsdl.RenderServicePortType, "other desc", "")
	if err != nil {
		t.Fatal(err)
	}
	if t1.Key != t2.Key {
		t.Error("same-name tModel minted twice")
	}
	if _, err := r.SaveTModel("", "", ""); err == nil {
		t.Error("empty name accepted")
	}
	got, ok := r.FindTModel(wsdl.RenderServicePortType)
	if !ok || got.Key != t1.Key {
		t.Error("FindTModel lost the model")
	}
	if _, ok := r.FindTModel("nope"); ok {
		t.Error("found nonexistent tModel")
	}
}

func TestRegistryHierarchy(t *testing.T) {
	r := NewRegistry()
	tm, _ := r.SaveTModel(wsdl.RenderServicePortType, "", "")
	biz, err := r.SaveBusiness("RAVE", "Cardiff project")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := r.SaveService(biz.Key, "render-tower")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.SaveService("uuid:bogus", "x"); err == nil {
		t.Error("service under missing business accepted")
	}
	bind, err := r.SaveBinding(svc.Key, "tcp://tower:9001", []string{tm.Key})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.SaveBinding(svc.Key, "", nil); err == nil {
		t.Error("empty access point accepted")
	}
	if _, err := r.SaveBinding("uuid:bogus", "x", nil); err == nil {
		t.Error("binding under missing service accepted")
	}
	if _, err := r.SaveBinding(svc.Key, "tcp://x", []string{"uuid:bogus"}); err == nil {
		t.Error("binding with missing tModel accepted")
	}

	// Re-registering the same access point does not duplicate.
	bind2, err := r.SaveBinding(svc.Key, "tcp://tower:9001", []string{tm.Key})
	if err != nil {
		t.Fatal(err)
	}
	if bind2.Key != bind.Key {
		t.Error("duplicate binding minted")
	}

	if got := r.FindBusinesses("rave"); len(got) != 1 || got[0].Key != biz.Key {
		t.Errorf("FindBusinesses: %v", got)
	}
	if got := r.FindBusinesses("zzz"); len(got) != 0 {
		t.Error("found nonexistent business")
	}
	if got := r.ServicesOf(biz.Key); len(got) != 1 || got[0].Key != svc.Key {
		t.Errorf("ServicesOf: %v", got)
	}
	if got := r.BindingsOf(svc.Key); len(got) != 1 || got[0].AccessPoint != "tcp://tower:9001" {
		t.Errorf("BindingsOf: %v", got)
	}
	if got := r.AccessPoints(tm.Key); len(got) != 1 || got[0] != "tcp://tower:9001" {
		t.Errorf("AccessPoints: %v", got)
	}

	if err := r.DeleteBinding(bind.Key); err != nil {
		t.Fatal(err)
	}
	if err := r.DeleteBinding(bind.Key); err == nil {
		t.Error("double delete accepted")
	}
	if got := r.AccessPoints(tm.Key); len(got) != 0 {
		t.Error("access point survives deletion")
	}
}

func TestRegistryDumpMirrorsFigure4(t *testing.T) {
	// Figure 4: machines "adrenochrome" and "tower", tower running a
	// render service "Skull-internal" bootstrapped from adrenochrome's
	// data service "Skull".
	r := NewRegistry()
	dataTM, _ := r.SaveTModel(wsdl.DataServicePortType, "", "")
	renderTM, _ := r.SaveTModel(wsdl.RenderServicePortType, "", "")
	adre, _ := r.SaveBusiness("RAVE@adrenochrome", "")
	tower, _ := r.SaveBusiness("RAVE@tower", "")
	ds, _ := r.SaveService(adre.Key, "Skull")
	rsA, _ := r.SaveService(adre.Key, "Skull-render")
	rsT, _ := r.SaveService(tower.Key, "Skull-internal")
	r.SaveBinding(ds.Key, "tcp://adrenochrome:9000", []string{dataTM.Key})
	r.SaveBinding(rsA.Key, "tcp://adrenochrome:9001", []string{renderTM.Key})
	r.SaveBinding(rsT.Key, "tcp://tower:9001", []string{renderTM.Key})

	entries := r.Dump()
	if len(entries) != 3 {
		t.Fatalf("dump entries: %d", len(entries))
	}
	// Sorted by business then service.
	if entries[0].Business != "RAVE@adrenochrome" || entries[2].Business != "RAVE@tower" {
		t.Errorf("dump order: %+v", entries)
	}
	if entries[2].Service != "Skull-internal" {
		t.Errorf("tower service: %+v", entries[2])
	}
	if len(entries[0].TModels) != 1 {
		t.Errorf("tmodels: %+v", entries[0])
	}
}

// newTestRegistry spins up a SOAP-fronted registry over HTTP.
func newTestRegistry(t *testing.T) (*Registry, *httptest.Server) {
	t.Helper()
	r := NewRegistry()
	ts := httptest.NewServer(NewServer(r))
	t.Cleanup(ts.Close)
	return r, ts
}

func TestProxyRegisterAndScan(t *testing.T) {
	_, ts := newTestRegistry(t)
	p := Connect(ts.URL)

	key, err := p.RegisterService("RAVE@tower", "render", "tcp://tower:9001", wsdl.RenderServicePortType)
	if err != nil {
		t.Fatal(err)
	}
	if key == "" {
		t.Fatal("empty binding key")
	}
	if _, err := p.RegisterService("RAVE@tower", "render2", "tcp://tower:9002", wsdl.RenderServicePortType); err != nil {
		t.Fatal(err)
	}

	points, err := p.ScanAccessPoints(wsdl.RenderServicePortType)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0] != "tcp://tower:9001" {
		t.Errorf("scan: %v", points)
	}

	if err := p.Unregister(key); err != nil {
		t.Fatal(err)
	}
	points, err = p.ScanAccessPoints(wsdl.RenderServicePortType)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Errorf("scan after unregister: %v", points)
	}
}

func TestProxyBootstrap(t *testing.T) {
	_, ts := newTestRegistry(t)
	pub := Connect(ts.URL)
	if _, err := pub.RegisterService("RAVE", "render-a", "tcp://a:9001", wsdl.RenderServicePortType); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.RegisterService("RAVE", "render-b", "tcp://b:9001", wsdl.RenderServicePortType); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.RegisterService("RAVE", "data", "tcp://a:9000", wsdl.DataServicePortType); err != nil {
		t.Fatal(err)
	}
	// Another business should not leak into RAVE's bootstrap.
	if _, err := pub.RegisterService("OtherProject", "render-x", "tcp://x:9001", wsdl.RenderServicePortType); err != nil {
		t.Fatal(err)
	}

	// A fresh proxy (cold cache) bootstraps the full path.
	p := Connect(ts.URL)
	points, err := p.Bootstrap("RAVE", wsdl.RenderServicePortType)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("bootstrap points: %v", points)
	}
	for _, ap := range points {
		if strings.Contains(ap, "x:") || strings.Contains(ap, ":9000") {
			t.Errorf("bootstrap leaked %s", ap)
		}
	}
	// After bootstrap, the incremental scan works without re-resolution.
	quick, err := p.ScanAccessPoints(wsdl.RenderServicePortType)
	if err != nil {
		t.Fatal(err)
	}
	if len(quick) != 3 { // scan is tModel-wide (includes OtherProject)
		t.Errorf("scan: %v", quick)
	}
}

func TestProxyBootstrapErrors(t *testing.T) {
	_, ts := newTestRegistry(t)
	p := Connect(ts.URL)
	if _, err := p.Bootstrap("RAVE", wsdl.RenderServicePortType); err == nil {
		t.Error("bootstrap of empty registry succeeded")
	}
	// Register tModel but no business.
	if _, err := p.EnsureTModel(wsdl.RenderServicePortType, "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Bootstrap("RAVE", wsdl.RenderServicePortType); err == nil {
		t.Error("bootstrap without business succeeded")
	}
}

func TestProxyDump(t *testing.T) {
	_, ts := newTestRegistry(t)
	p := Connect(ts.URL)
	if _, err := p.RegisterService("RAVE@tower", "Skull-internal", "tcp://tower:9001", wsdl.RenderServicePortType); err != nil {
		t.Fatal(err)
	}
	entries, err := p.DumpEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Service != "Skull-internal" {
		t.Errorf("dump: %+v", entries)
	}
}

func TestProxyUnreachableRegistry(t *testing.T) {
	p := Connect("http://127.0.0.1:1/uddi")
	if _, err := p.ScanAccessPoints("X"); err == nil {
		t.Error("unreachable registry scan succeeded")
	}
	if _, err := p.RegisterService("b", "s", "ap", "tm"); err == nil {
		t.Error("unreachable registry register succeeded")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	tm, err := r.SaveTModel(wsdl.RenderServicePortType, "", "")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < 25; k++ {
				biz, err := r.SaveBusiness(fmt.Sprintf("RAVE-%d", id), "")
				if err != nil {
					t.Error(err)
					return
				}
				svc, err := r.SaveService(biz.Key, fmt.Sprintf("render-%d-%d", id, k))
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := r.SaveBinding(svc.Key, fmt.Sprintf("tcp://h%d:%d", id, k), []string{tm.Key}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				r.AccessPoints(tm.Key)
				r.Dump()
				r.FindBusinesses("RAVE")
			}
		}()
	}
	wg.Wait()
	if got := len(r.AccessPoints(tm.Key)); got != 8*25 {
		t.Errorf("access points: %d, want 200", got)
	}
}
