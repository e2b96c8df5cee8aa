package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"repro/internal/index"
	"repro/internal/sharded"
)

// Report is the machine-readable form of a figure: the banner fields that
// make a run attributable (GOMAXPROCS above all — a 1-core container's
// sharded numbers only bound scatter overhead) plus one Row per measured
// cell. Two Reports from different machines diff cleanly where the text
// tables (padded columns, interleaved banners) do not.
type Report struct {
	Figure     string `json:"figure"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Keys       int    `json:"keys"`
	Ops        int    `json:"ops"`
	Seed       int64  `json:"seed"`
	MaxShards  int    `json:"max_shards,omitempty"`
	Rows       []Row  `json:"rows"`
}

// Row is one measured cell: which engine, on which dataset, under which
// workload, routing mode, shard count and thread count, at what
// throughput. Balance is the loaded index's max/mean per-shard key-count
// ratio (1.0 = perfectly even; the shard count = everything on one hot
// shard); zero when the cell is unsharded or balance was not measured.
// Workload/Threads are set by the YCSB figures. Axes a figure does not
// sweep are omitted.
type Row struct {
	Engine   string  `json:"engine"`
	Dataset  string  `json:"dataset,omitempty"`
	Workload string  `json:"workload,omitempty"`
	Router   string  `json:"router,omitempty"`
	Shards   int     `json:"shards"`
	Threads  int     `json:"threads,omitempty"`
	Mops     float64 `json:"mops"`
	Balance  float64 `json:"balance_max_mean,omitempty"`

	// Latency axes (µs), measured per op by the YCSB figures. P99CIus is
	// the half-width of a bootstrap-resampled 95% confidence interval
	// around p99; CVPct is the coefficient of variation of per-timeslice
	// throughput (the noisy-run flag). All are measurements, not identity:
	// they stay out of axes() and are omitted where a cell did not capture
	// latency.
	P50us   float64 `json:"p50_us,omitempty"`
	P99us   float64 `json:"p99_us,omitempty"`
	P999us  float64 `json:"p999_us,omitempty"`
	P99CIus float64 `json:"p99_ci_us,omitempty"`
	MaxUs   float64 `json:"max_us,omitempty"`
	CVPct   float64 `json:"cv_pct,omitempty"`
}

// axes serializes every identifying axis of a row (everything but the
// measurements) — the key the text renderers use to pick cells out of a
// report.
func (r Row) axes() string {
	return fmt.Sprintf("%s|%s|%s|%s|%d|%d",
		r.Engine, r.Dataset, r.Workload, r.Router, r.Shards, r.Threads)
}

// newReport stamps the environment fields every figure shares.
func newReport(figure string, o Options) Report {
	return Report{
		Figure:     figure,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Keys:       o.Keys,
		Ops:        o.Ops,
		Seed:       o.Seed,
		MaxShards:  sharded.RoundShards(o.Shards),
	}
}

// WriteJSON emits a report as one JSON document, newline-terminated.
func (rep Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(rep)
}

// balanceOf measures a loaded index's per-shard balance: max/mean of its
// shard key counts, 0 for unsharded engines (no shards to balance).
func balanceOf(ix index.Index) float64 {
	sx, ok := ix.(*sharded.Index)
	if !ok {
		return 0
	}
	total, max := 0, 0
	for _, l := range sx.ShardLens() {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) / (float64(total) / float64(sx.Shards()))
}
