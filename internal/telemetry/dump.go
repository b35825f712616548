package telemetry

import (
	"fmt"
	"io"
	"time"
)

// WriteText renders a snapshot as fixed-format text, one metric per
// line, for periodic operator logs and on-demand dumps:
//
//	TELEMETRY t=1000000000000ns
//	data counter frames_total 12
//	data histogram frame_latency_ns count=12 sum=96000000 p50=5ms p99=10ms
//
// The format is deterministic for a deterministic snapshot (metrics
// are already sorted), so tests may compare dumps byte for byte.
func WriteText(w io.Writer, snap Snapshot) error {
	if _, err := fmt.Fprintf(w, "TELEMETRY t=%dns\n", snap.TakenNanos); err != nil {
		return err
	}
	for _, m := range snap.Metrics {
		name := m.Name
		if m.Label != "" {
			name += "{" + m.Label + "}"
		}
		var err error
		switch m.Kind {
		case KindHistogram:
			_, err = fmt.Fprintf(w, "%s %s %s count=%d sum=%dns p50=%v p99=%v max=%v\n",
				m.Service, m.Kind, name, m.Count, m.SumNanos,
				m.Quantile(0.50), m.Quantile(0.99), time.Duration(m.MaxNanos))
		default:
			_, err = fmt.Fprintf(w, "%s %s %s %d\n", m.Service, m.Kind, name, m.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
