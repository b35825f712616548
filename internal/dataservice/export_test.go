package dataservice

// SubscribeMirror exposes the two halves of MirrorSessionSince to the
// conformance table, which commits on the primary between them.
var SubscribeMirror = subscribeMirror
