package miniredis

// Per-command handlers — the execute stage's leaf. dispatchOne runs one
// command on the calling goroutine under whatever discipline the executor
// chose (cmdMu or nothing); the handlers themselves only add the
// per-stripe write mutexes that pin WAL order to apply order. WAIT is
// deliberately absent: dispatch splits it out of every batch in every
// mode, because its handler parks.

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/persist"
	"repro/internal/resp"
)

// dispatchOne executes a single command and folds it into the server's
// observability state (stats.go): one clock pair around the handler, the
// family's call/error counters, and — for commands over the slowlog
// threshold — a slowlog entry. quiesced says the caller holds this
// server's quiesce lock (serial mode's cmdMu), so SAVE must not retake it.
func (s *Server) dispatchOne(w *resp.Writer, cmd [][]byte, cs *connState, quiesced bool) {
	st := s.stats.statFor(cmd)
	errsBefore := w.ErrorsWritten()
	start := time.Now()
	s.runCommand(w, cmd, cs, quiesced)
	s.observeCmd(st, w, cmd, errsBefore, start)
}

// runCommand executes a single command's handler (see dispatchOne for the
// locking contract).
func (s *Server) runCommand(w *resp.Writer, cmd [][]byte, cs *connState, quiesced bool) {
	if len(cmd) == 0 {
		w.WriteError("empty command")
		return
	}
	var sink uint64
	switch strings.ToUpper(string(cmd[0])) {
	case "PING":
		w.WriteSimple("PONG")
	case "ZADD":
		if len(cmd) != 4 {
			w.WriteError("wrong number of arguments for ZADD")
			return
		}
		if s.rejectReadonly(w) {
			return
		}
		v, err := strconv.ParseUint(string(cmd[3]), 10, 64)
		if err != nil {
			w.WriteError("value is not an integer")
			return
		}
		if unlock := s.lockWrite(string(cmd[1])); unlock != nil {
			defer unlock()
		}
		added, err := s.set(string(cmd[1])).Set(cmd[2], v)
		if err != nil {
			w.WriteError(err.Error())
			return
		}
		// The write is logged after it applied (AOF-style); a WAL failure
		// is reported instead of acknowledging a write that cannot become
		// durable.
		lsn, err := s.logWrite(persist.OpSet, string(cmd[1]), cmd[2], v)
		if err != nil {
			w.WriteError("persistence: " + err.Error())
			return
		}
		cs.lastWrite = lsn
		// Redis semantics: reply 1 only for a newly added member, 0 when an
		// existing member's score was updated.
		if added {
			w.WriteInt(1)
		} else {
			w.WriteInt(0)
		}
	case "ZSCORE":
		if len(cmd) != 3 {
			w.WriteError("wrong number of arguments for ZSCORE")
			return
		}
		v, ok := s.set(string(cmd[1])).Get(cmd[2])
		if !ok {
			w.WriteBulk(nil)
			return
		}
		w.WriteBulk([]byte(strconv.FormatUint(v, 10)))
	case "ZMSCORE":
		// ZMSCORE key member [member ...] — batched scores via MultiGet.
		if len(cmd) < 3 {
			w.WriteError("wrong number of arguments for ZMSCORE")
			return
		}
		members := cmd[2:]
		vals := make([]uint64, len(members))
		found := make([]bool, len(members))
		s.set(string(cmd[1])).MultiGet(members, vals, found)
		w.WriteArrayHeader(len(members))
		for i := range members {
			if found[i] {
				w.WriteBulk([]byte(strconv.FormatUint(vals[i], 10)))
			} else {
				w.WriteBulk(nil)
			}
		}
	case "ZREM":
		if len(cmd) != 3 {
			w.WriteError("wrong number of arguments for ZREM")
			return
		}
		if s.rejectReadonly(w) {
			return
		}
		if unlock := s.lockWrite(string(cmd[1])); unlock != nil {
			defer unlock()
		}
		if s.set(string(cmd[1])).Delete(cmd[2]) {
			// Only a removal that happened is logged: replaying a delete of
			// a key that was never there is harmless, but not logging one
			// that was would resurrect the key on recovery.
			lsn, err := s.logWrite(persist.OpDelete, string(cmd[1]), cmd[2], 0)
			if err != nil {
				w.WriteError("persistence: " + err.Error())
				return
			}
			cs.lastWrite = lsn
			w.WriteInt(1)
		} else {
			w.WriteInt(0)
		}
	case "ZRANGEBYLEX":
		// ZRANGEBYLEX key start count — scan `count` members ≥ start.
		if len(cmd) != 4 {
			w.WriteError("wrong number of arguments for ZRANGEBYLEX")
			return
		}
		count, err := strconv.Atoi(string(cmd[3]))
		if err != nil || count < 0 {
			w.WriteError("count is not an integer")
			return
		}
		var members [][]byte
		s.set(string(cmd[1])).Scan(cmd[2], count, func(k []byte, v uint64) bool {
			// Per-element system work: copy the member for the reply (the
			// work that §4.4's next-leaf prefetch overlaps with).
			members = append(members, append([]byte(nil), k...))
			sink += v
			return true
		})
		w.WriteArrayHeader(len(members))
		for _, m := range members {
			w.WriteBulk(m)
		}
	case "DBSIZE":
		w.WriteInt(int64(s.ks.totalLen()))
	case "FLUSHALL":
		if s.rejectReadonly(w) {
			return
		}
		if unlock := s.lockAllWrites(); unlock != nil {
			defer unlock()
		}
		s.ks.flush()
		lsn, err := s.logWrite(persist.OpFlushAll, "", nil, 0)
		if err != nil {
			w.WriteError("persistence: " + err.Error())
			return
		}
		cs.lastWrite = lsn
		w.WriteSimple("OK")
	case "SAVE":
		// Foreground snapshot; the executor may already hold the quiesce
		// lock (serial's cmdMu), so save must not retake it.
		if err := s.save(quiesced); err != nil {
			w.WriteError(err.Error())
			return
		}
		w.WriteSimple("OK")
	case "BGSAVE":
		if !s.Persistent() {
			w.WriteError(ErrNoPersistence.Error())
			return
		}
		if s.BGSave() {
			w.WriteSimple("Background saving started")
		} else {
			w.WriteSimple("Background save already in progress")
		}
	case "REPLICAOF", "SLAVEOF":
		s.cmdReplicaOf(w, cmd)
	case "REPLCONF":
		s.cmdReplconf(w, cs, cmd)
	case "INFO":
		s.cmdInfo(w, cmd)
	case "LATENCY":
		s.cmdLatency(w, cmd)
	case "SLOWLOG":
		s.cmdSlowlog(w, cmd)
	default:
		w.WriteError(fmt.Sprintf("unknown command '%s'", cmd[0]))
	}
	_ = sink
}

func isZScore(cmd [][]byte) bool {
	return len(cmd) == 3 && strings.EqualFold(string(cmd[0]), "ZSCORE")
}

// zscoreBatch answers a run of same-set ZSCOREs with one MultiGet. The run
// is observed as n zscore calls and one latency sample covering the batch;
// reply encoding is outside the sample, the MultiGet dominates.
func (s *Server) zscoreBatch(w *resp.Writer, cmds [][][]byte) {
	start := time.Now()
	members := make([][]byte, len(cmds))
	for i, c := range cmds {
		members[i] = c[2]
	}
	vals := make([]uint64, len(members))
	found := make([]bool, len(members))
	s.set(string(cmds[0][1])).MultiGet(members, vals, found)
	s.observeZScoreRun(cmds, start)
	for i := range cmds {
		writeScore(w, vals[i], found[i])
	}
}

// writeScore writes one ZSCORE reply: the score as a bulk string, or the
// null bulk for a missing member.
func writeScore(w *resp.Writer, v uint64, ok bool) {
	if ok {
		w.WriteBulk([]byte(strconv.FormatUint(v, 10)))
	} else {
		w.WriteBulk(nil)
	}
}
