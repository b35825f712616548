package gateway

// DefaultQueueDepth bounds concurrently admitted gateway dispatches
// when Config.QueueDepth is zero. Larger than the render service's
// per-node queue: the gateway fronts a whole fleet.
const DefaultQueueDepth = 64

// ReasonCapacity declines a frame whose owning node had no free render
// slot to reserve. The gate's own reasons are admission.Reason*.
const ReasonCapacity = "capacity"
