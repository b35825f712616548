// Admission control for the render service: every render call passes
// the shared admission.Gate (see that package). Interactive frame
// requests (a user waiting at a thin client) may use the whole queue;
// background work (tile and subset assists for peers, which have
// hedging and degraded-assembly fallbacks of their own) is capped at
// half of it, so assists can never starve the service's own viewers.
package renderservice

import "repro/internal/transport"

// DefaultQueueDepth bounds concurrently admitted render calls when
// Config.QueueDepth is zero.
const DefaultQueueDepth = 8

// ErrOverloaded is the admission gate's typed refusal: transport.Decline,
// which is also how it crosses a socket (MsgDeclined) and comes back.
type ErrOverloaded = transport.Decline

// AdmissionStats reports how many render calls the gate admitted and
// shed since the service started (for load experiments and tests).
func (s *Service) AdmissionStats() (admitted, shed int) { return s.adm.Stats() }
