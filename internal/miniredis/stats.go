package miniredis

// Command observability: per-family call/error counters and latency
// histograms (INFO commandstats / INFO latencystats, LATENCY HISTOGRAM),
// plus a Redis-style slowlog ring (SLOWLOG GET/RESET/LEN). The counters
// and histograms are lock-free (internal/metrics + atomics), so the
// instrumentation rides every execution mode's hot path — including
// striped-conn connections running the same family concurrently — without
// adding a shared lock. Only the slowlog takes a mutex, and only for
// commands already slower than the threshold (default 10ms), where one lock
// acquisition is noise.

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/resp"
)

// cmdStat is one family's counters: calls, commands that replied with an
// error, and the latency distribution of the handler (measured around
// runCommand, so it includes engine work, WAL appends and reply
// encoding, but not the connection flush or a group-commit park — those
// belong to the pipeline, not one command).
type cmdStat struct {
	calls atomic.Uint64
	errs  atomic.Uint64
	hist  *metrics.Histogram
}

// serverStats aggregates a server's command observability state.
type serverStats struct {
	cmds [numFamilies]cmdStat // indexed by cmdID
	slow slowlog
}

func newServerStats() *serverStats {
	st := &serverStats{}
	for i := range st.cmds {
		st.cmds[i].hist = metrics.New()
	}
	st.slow.threshold.Store(int64(defaultSlowlogThreshold))
	return st
}

// family maps a command ID to its stat family: itself, or "unknown" for
// commands that have none (PSYNC).
func family(id cmdID) cmdID { return min(id, cmdUnknown) }

// observeCmd folds one executed command into its family's counters and,
// when it ran slower than the slowlog threshold, the slowlog ring. The
// error delta comes from the reply writer: WriteError/WriteErrorCode
// bumped its counter iff the handler replied with an error, so handlers
// need no second reporting channel.
func (s *Server) observeCmd(id cmdID, w *resp.Writer, cmd [][]byte, errsBefore uint64, start time.Time) {
	d := time.Since(start)
	st := &s.stats.cmds[family(id)]
	st.calls.Add(1)
	if w.ErrorsWritten() != errsBefore {
		st.errs.Add(1)
	}
	st.hist.RecordDuration(int64(d))
	if s.stats.slow.eligible(d) {
		s.stats.slow.add(cmd, d, s.mode, s.stripeOf(id, cmd))
	}
}

// observeZScoreRun folds a collapsed same-set ZSCORE run (one MultiGet
// answering n pipelined ZSCOREs) into the zscore family: n calls, one
// latency sample — the batch is the unit that ran, and splitting its
// duration n ways would fabricate per-op latencies nothing measured. A
// slow batch lands in the slowlog as one entry under its first command.
func (s *Server) observeZScoreRun(first [][]byte, n int, start time.Time) {
	d := time.Since(start)
	st := &s.stats.cmds[cmdZScore]
	st.calls.Add(uint64(n))
	st.hist.RecordDuration(int64(d))
	if s.stats.slow.eligible(d) {
		s.stats.slow.add(first, d, s.mode, s.stripeOf(cmdZScore, first))
	}
}

// --- slowlog ---

// stripeOf reports the keyspace stripe a command's set routes to, -1 for
// commands that touch no set (the slowlog's Stripe field).
func (s *Server) stripeOf(id cmdID, cmd [][]byte) int {
	if cmdSpecs[id].keyed && len(cmd) >= 2 {
		return s.ks.stripeIdx(cmd[1])
	}
	return -1
}

const (
	// slowlogCap bounds the ring: Redis's default is 128 entries.
	slowlogCap = 128
	// defaultSlowlogThreshold logs commands slower than 10ms — generous
	// enough that a healthy in-memory server logs nothing, tight enough
	// that a stalled fsync or a quiesced save shows up.
	defaultSlowlogThreshold = 10 * time.Millisecond
	// slowlogMaxArgs/slowlogMaxArgLen truncate captured commands the way
	// Redis does, so a slow ZADD with a huge member cannot pin megabytes
	// in the ring.
	slowlogMaxArgs   = 4
	slowlogMaxArgLen = 64
)

// slowEntry is one captured slow command. Mode and Stripe replace Redis's
// client-addr/client-name fields: the execution mode that ran the command
// and the keyspace stripe its set routes to (-1 = it touches no set).
type slowEntry struct {
	ID     int64
	Unix   int64
	Dur    time.Duration
	Args   [][]byte
	Mode   ExecMode
	Stripe int
}

// slowlog is a fixed-size ring of the slowest commands. threshold is in
// nanoseconds: negative disables logging entirely, zero logs every
// command (Redis's slowlog-log-slower-than semantics).
type slowlog struct {
	threshold atomic.Int64
	mu        sync.Mutex
	nextID    int64
	total     int64 // entries ever added; min(total, slowlogCap) are live
	ring      [slowlogCap]slowEntry
}

// eligible is the lock-free fast path: one atomic load decides whether a
// command's duration warrants touching the ring at all.
func (sl *slowlog) eligible(d time.Duration) bool {
	t := sl.threshold.Load()
	return t >= 0 && int64(d) >= t
}

func (sl *slowlog) add(cmd [][]byte, d time.Duration, mode ExecMode, stripe int) {
	args := make([][]byte, 0, min(len(cmd), slowlogMaxArgs+1))
	for i, a := range cmd {
		if i == slowlogMaxArgs && len(cmd) > slowlogMaxArgs+1 {
			args = append(args, []byte(fmt.Sprintf("... (%d more arguments)", len(cmd)-slowlogMaxArgs)))
			break
		}
		if len(a) > slowlogMaxArgLen {
			a = append(append([]byte(nil), a[:slowlogMaxArgLen]...), "..."...)
		} else {
			a = append([]byte(nil), a...)
		}
		args = append(args, a)
	}
	e := slowEntry{Unix: time.Now().Unix(), Dur: d, Args: args, Mode: mode, Stripe: stripe}
	sl.mu.Lock()
	e.ID = sl.nextID
	sl.nextID++
	sl.ring[sl.total%slowlogCap] = e
	sl.total++
	sl.mu.Unlock()
}

// entries returns up to max entries, newest first.
func (sl *slowlog) entries(max int) []slowEntry {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	n := int(min(sl.total, slowlogCap))
	if max >= 0 && max < n {
		n = max
	}
	out := make([]slowEntry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, sl.ring[(sl.total-1-int64(i))%slowlogCap])
	}
	return out
}

func (sl *slowlog) size() int {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return int(min(sl.total, slowlogCap))
}

func (sl *slowlog) reset() {
	sl.mu.Lock()
	sl.total = 0
	sl.ring = [slowlogCap]slowEntry{}
	sl.mu.Unlock()
}

// SetSlowlogThreshold sets the slowlog's minimum duration: commands at or
// above it are captured. Zero logs every command; negative disables the
// slowlog. Safe to call while serving.
func (s *Server) SetSlowlogThreshold(d time.Duration) {
	s.stats.slow.threshold.Store(int64(d))
}

// --- LATENCY / SLOWLOG command handlers ---

// cmdLatency handles LATENCY HISTOGRAM [cmd ...] and LATENCY RESET
// [cmd ...]. HISTOGRAM replies with an alternating array — family name,
// then [ "calls", n, "histogram_usec", [upper_us, count, ...] ] — for the
// requested families (default: every family with at least one recorded
// sample). RESET zeroes the named families' histograms (default all) and
// replies with how many were reset.
func (s *Server) cmdLatency(w *resp.Writer, cmd [][]byte) {
	// The named families in request order, each once; default all.
	families := func() []cmdID {
		var ids []cmdID
		if len(cmd) == 2 {
			for f := cmdID(0); f < numFamilies; f++ {
				ids = append(ids, f)
			}
			return ids
		}
		var seen [numFamilies]bool
		for _, c := range cmd[2:] {
			if f := family(classify(c)); !seen[f] {
				seen[f] = true
				ids = append(ids, f)
			}
		}
		return ids
	}
	switch strings.ToUpper(string(cmd[1])) {
	case "HISTOGRAM":
		type famHist struct {
			name string
			sn   metrics.Snapshot
		}
		var hists []famHist
		for _, f := range families() {
			sn := s.stats.cmds[f].hist.Snapshot()
			if sn.Count() == 0 && len(cmd) == 2 {
				continue // default listing: only families that ran
			}
			hists = append(hists, famHist{cmdSpecs[f].name, sn})
		}
		w.WriteArrayHeader(2 * len(hists))
		for _, fh := range hists {
			w.WriteBulk([]byte(fh.name))
			var uppers, counts []uint64
			fh.sn.Buckets(func(upper, count uint64) {
				uppers = append(uppers, (upper+999)/1000) // ns → µs, ceil so sub-µs buckets stay visible
				counts = append(counts, count)
			})
			w.WriteArrayHeader(4)
			w.WriteBulk([]byte("calls"))
			w.WriteInt(int64(fh.sn.Count()))
			w.WriteBulk([]byte("histogram_usec"))
			w.WriteArrayHeader(2 * len(uppers))
			for i := range uppers {
				w.WriteInt(int64(uppers[i]))
				w.WriteInt(int64(counts[i]))
			}
		}
	case "RESET":
		fs := families()
		for _, f := range fs {
			s.stats.cmds[f].hist.Reset()
		}
		w.WriteInt(int64(len(fs)))
	default:
		w.WriteError(fmt.Sprintf("unknown LATENCY subcommand '%s' (want HISTOGRAM or RESET)", cmd[1]))
	}
}

// cmdSlowlog handles SLOWLOG GET [count] | RESET | LEN. GET replies with
// the newest entries first; each entry is [id, unixtime, duration_us,
// args..., exec-mode, stripe] — mode and stripe stand where Redis puts
// the client address and name (see slowEntry).
func (s *Server) cmdSlowlog(w *resp.Writer, cmd [][]byte) {
	switch strings.ToUpper(string(cmd[1])) {
	case "GET":
		max := 10
		if len(cmd) == 3 {
			n, err := strconv.Atoi(string(cmd[2]))
			if err != nil {
				w.WriteError("count is not an integer")
				return
			}
			max = n // negative = everything, matching Redis
		}
		ents := s.stats.slow.entries(max)
		w.WriteArrayHeader(len(ents))
		for _, e := range ents {
			w.WriteArrayHeader(6)
			w.WriteInt(e.ID)
			w.WriteInt(e.Unix)
			w.WriteInt(int64(e.Dur / time.Microsecond))
			w.WriteArrayHeader(len(e.Args))
			for _, a := range e.Args {
				w.WriteBulk(a)
			}
			w.WriteBulk([]byte(e.Mode))
			w.WriteInt(int64(e.Stripe))
		}
	case "RESET":
		s.stats.slow.reset()
		w.WriteSimple("OK")
	case "LEN":
		w.WriteInt(int64(s.stats.slow.size()))
	default:
		w.WriteError(fmt.Sprintf("unknown SLOWLOG subcommand '%s' (want GET, RESET or LEN)", cmd[1]))
	}
}

// --- INFO sections ---

// appendClientsInfo writes the "# Clients" INFO section: live connection
// count, the -maxconns cap (0 = unlimited) and how many connections the
// cap has refused.
func (s *Server) appendClientsInfo(b *strings.Builder) {
	b.WriteString("# Clients\r\n")
	fmt.Fprintf(b, "connected_clients:%d\r\nmaxclients:%d\r\nrejected_connections:%d\r\n",
		s.conns.Load(), s.maxConns, s.rejected.Load())
}

// appendCommandStats writes the "# Commandstats" INFO section: one
// cmdstat_<family> line per family that has run, Redis's spelling
// (calls/errors/usec_per_call) so existing tooling parses it.
func (s *Server) appendCommandStats(b *strings.Builder) {
	b.WriteString("# Commandstats\r\n")
	for i := range s.stats.cmds {
		st := &s.stats.cmds[i]
		calls := st.calls.Load()
		if calls == 0 {
			continue
		}
		sn := st.hist.Snapshot()
		perCall := 0.0
		if sn.Count() > 0 {
			// Mean over histogram samples: collapsed ZSCORE runs count n
			// calls but one sample, so this is µs per executed unit, the
			// number that predicts a pipeline's cost.
			perCall = sn.Mean() / float64(time.Microsecond)
		}
		fmt.Fprintf(b, "cmdstat_%s:calls=%d,errors=%d,usec_per_call=%.2f\r\n",
			cmdSpecs[i].name, calls, st.errs.Load(), perCall)
	}
}

// appendLatencyStats writes the "# Latencystats" INFO section: Redis's
// latency_percentiles_usec_<family> lines, percentiles in microseconds
// from the family's log-bucketed histogram.
func (s *Server) appendLatencyStats(b *strings.Builder) {
	b.WriteString("# Latencystats\r\n")
	for i := range s.stats.cmds {
		sn := s.stats.cmds[i].hist.Snapshot()
		if sn.Count() == 0 {
			continue
		}
		fmt.Fprintf(b, "latency_percentiles_usec_%s:p50=%.3f,p99=%.3f,p99.9=%.3f\r\n",
			cmdSpecs[i].name,
			float64(sn.Quantile(0.5))/float64(time.Microsecond),
			float64(sn.Quantile(0.99))/float64(time.Microsecond),
			float64(sn.Quantile(0.999))/float64(time.Microsecond))
	}
}

// appendWALMetricsInfo extends "# Persistence" with the WAL's durability
// histograms: fsync duration, Commit park time and group-commit batch
// size. Zero-count histograms still print their count lines (so parsers
// need no existence check) but omit the percentile lines.
func (s *Server) appendWALMetricsInfo(b *strings.Builder) {
	m := s.wal.Metrics()
	writeDur := func(prefix string, sn metrics.Snapshot) {
		fmt.Fprintf(b, "%s_count:%d\r\n", prefix, sn.Count())
		if sn.Count() == 0 {
			return
		}
		fmt.Fprintf(b, "%s_p50_us:%d\r\n%s_p99_us:%d\r\n%s_max_us:%d\r\n",
			prefix, sn.Quantile(0.5)/1000, prefix, sn.Quantile(0.99)/1000, prefix, sn.Max()/1000)
	}
	writeDur("aof_fsync", m.Fsync.Snapshot())
	writeDur("aof_commit_wait", m.CommitWait.Snapshot())
	bs := m.BatchSize.Snapshot()
	fmt.Fprintf(b, "aof_group_batch_count:%d\r\n", bs.Count())
	if bs.Count() > 0 {
		fmt.Fprintf(b, "aof_group_batch_p50:%d\r\naof_group_batch_max:%d\r\n",
			bs.Quantile(0.5), bs.Max())
	}
}
