// Package wsdl names the two port types RAVE services register under
// (§3.2.2): "WSDL can be registered with a UDDI server, enabling remote
// users to find our publicly-available resources and connect
// automatically". Two services registered under the same port type
// implement the same API — the paper's "technical model" contract.
package wsdl

// DataServicePortType and RenderServicePortType are RAVE's two technical
// models (§4.3: "we have two technical models, one for the data service
// and one for the render service").
const (
	DataServicePortType   = "RAVEDataService"
	RenderServicePortType = "RAVERenderService"
)
