package marshal

import "encoding/binary"

// Optional binary trace header for marshalled scene-op payloads.
//
// JSON control messages carry trace context as plain optional fields,
// but op messages (MsgSceneOp / MsgSceneOpVer bodies) are the binary
// marshal format, which has no extension point. The trace header is a
// small prologue prepended to the op body. No socket carries one today:
// nothing outside this file's tests appends or splits a header (see
// unreached.keep).
//
//	magic(2) = 0x5254 "RT" | version(1) | size(1) | trace(8) | span(8)
//
// Detection is unambiguous: a marshalled op body always begins with a
// u8 op kind, which is a small integer (1..5) and can never equal the
// header magic's first byte 0x52. A decoder that understands headers
// therefore probes the first two bytes; absent magic means an untraced
// op from a pre-telemetry peer and the payload passes through
// unchanged. The size byte counts the bytes after the 4-byte prologue,
// so a decoder can skip a header of a newer version it does not
// understand without knowing its field layout.

const (
	traceMagic uint16 = 0x5254 // "RT"; op bodies start with kind 1..5
	traceVer   byte   = 1
	// traceV1Size is the post-prologue size of a v1 header: trace(8) +
	// span(8).
	traceV1Size = 16
	// tracePrologue is magic(2) + version(1) + size(1).
	tracePrologue = 4
)

// AppendTraceHeader prepends a v1 trace header carrying (trace, span)
// to body. A zero trace means "untraced": the body is returned
// unchanged, so call sites need no branching.
func AppendTraceHeader(trace, span uint64, body []byte) []byte {
	if trace == 0 {
		return body
	}
	out := make([]byte, tracePrologue+traceV1Size+len(body))
	binary.BigEndian.PutUint16(out[0:], traceMagic)
	out[2] = traceVer
	out[3] = traceV1Size
	binary.BigEndian.PutUint64(out[4:], trace)
	binary.BigEndian.PutUint64(out[12:], span)
	copy(out[tracePrologue+traceV1Size:], body)
	return out
}

// SplitTraceHeader strips a leading trace header from payload if one
// is present, returning the trace context and the op body. Payloads
// without a header (pre-telemetry peers) pass through unchanged with a
// zero context. Headers of an unknown (newer) version are skipped via
// their declared size, yielding a zero context: the op still decodes,
// only the trace linkage is lost. Never panics on arbitrary input; a
// malformed header (declared size overrunning the payload) is treated
// as absent.
func SplitTraceHeader(payload []byte) (trace, span uint64, body []byte) {
	if len(payload) < tracePrologue || binary.BigEndian.Uint16(payload) != traceMagic {
		return 0, 0, payload
	}
	size := int(payload[3])
	if len(payload) < tracePrologue+size {
		// Claims more bytes than exist: not a well-formed header. Hand
		// the payload to the op decoder untouched; it will produce its
		// own diagnostic.
		return 0, 0, payload
	}
	body = payload[tracePrologue+size:]
	if payload[2] != traceVer || size < traceV1Size {
		// Unknown version: skip the header, lose the context.
		return 0, 0, body
	}
	return binary.BigEndian.Uint64(payload[4:]), binary.BigEndian.Uint64(payload[12:]), body
}
