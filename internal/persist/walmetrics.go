package persist

import "repro/internal/metrics"

// WALMetrics exposes the WAL's always-on durability histograms. The three
// distributions are the observable shape of the fsync schedule: how long
// each fsync takes, how long Commit callers sat parked on the durable
// watermark, and how many records each group-commit fsync covered (the
// coalescing win group mode exists for). Recording is lock-free
// (internal/metrics) and runs on the hot path under every policy, so a
// server can surface them in INFO without a measurement mode.
type WALMetrics struct {
	// Fsync is the duration of every fsync issued through the WAL's seam
	// (nanoseconds): policy-driven syncs, rotations and the final close.
	Fsync *metrics.Histogram
	// CommitWait is the time Commit callers spent blocked before their LSN
	// became durable (nanoseconds). Commits that found the watermark
	// already past their LSN record nothing.
	CommitWait *metrics.Histogram
	// BatchSize is the number of records each group-syncer fsync made
	// durable — those appended while the previous fsync was in flight,
	// the syncer's only batching window. Only the FsyncGroup/FsyncAsync
	// syncer records it.
	BatchSize *metrics.Histogram
}

func newWALMetrics() WALMetrics {
	return WALMetrics{
		Fsync:      metrics.New(),
		CommitWait: metrics.New(),
		BatchSize:  metrics.New(),
	}
}

// Metrics returns the WAL's durability histograms. The histograms are safe
// for concurrent snapshotting while appends continue.
func (w *WAL) Metrics() WALMetrics { return w.met }
