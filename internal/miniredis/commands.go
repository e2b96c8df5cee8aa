package miniredis

// Per-command handlers — the execute stage's leaf. dispatchOne runs one
// command on the calling goroutine under whatever discipline the caller
// chose (execSeq's cmdMu, or nothing); runCommand adds only what the
// command's spec (cmdSpecs) asks for, such as the per-stripe write mutexes
// that pin WAL order to apply order. WAIT reaches its handler only from
// dispatch, which runs it outside every lock because it parks.

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/persist"
	"repro/internal/resp"
)

// dispatchOne executes a single command and folds it into the server's
// observability state (stats.go): one clock pair around the handler, the
// family's call/error counters, and — for commands over the slowlog
// threshold — a slowlog entry. quiesced says the caller holds this
// server's quiesce lock (serial mode's cmdMu), so SAVE must not retake it.
func (s *Server) dispatchOne(w *resp.Writer, c command, cs *connState, quiesced bool) {
	errsBefore := w.ErrorsWritten()
	start := time.Now()
	s.runCommand(w, c.id, c.args, cs, quiesced)
	s.observeCmd(c.id, w, c.args, errsBefore, start)
}

// runCommand executes a single command (see dispatchOne for the locking
// contract). Its prologue applies the command's spec: the arity check,
// then for a write the replica's -READONLY gate and the write lock —
// lockWrite on the set's stripe, lockAllWrites for a keyspace-wide write —
// held until the handler returns. The arguments are borrowed from the
// connection's read buffer: a handler that retains one past its return
// must copy it.
func (s *Server) runCommand(w *resp.Writer, id cmdID, cmd [][]byte, cs *connState, quiesced bool) {
	if len(cmd) == 0 {
		w.WriteError("empty command")
		return
	}
	if !checkArity(w, id, cmd) {
		return
	}
	if sp := &cmdSpecs[id]; sp.write {
		if s.rejectReadonly(w) {
			return
		}
		var unlock func()
		if sp.keyed {
			unlock = s.lockWrite(cmd[1])
		} else {
			unlock = s.lockAllWrites()
		}
		if unlock != nil {
			defer unlock()
		}
	}
	switch id {
	case cmdPing:
		w.WriteSimple("PONG")
	case cmdZAdd:
		v, err := strconv.ParseUint(string(cmd[3]), 10, 64)
		if err != nil {
			w.WriteError("value is not an integer")
			return
		}
		added, err := s.set(cmd[1]).Set(cmd[2], v)
		if err != nil {
			w.WriteError(err.Error())
			return
		}
		// The write is logged after it applied (AOF-style); a WAL failure
		// is reported instead of acknowledging a write that cannot become
		// durable.
		lsn, err := s.logWrite(persist.OpSet, cmd[1], cmd[2], v)
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
	case cmdZScore:
		v, ok := s.set(cmd[1]).Get(cmd[2])
		writeScore(w, v, ok)
	case cmdZMScore:
		// ZMSCORE key member [member ...] — batched scores via MultiGet.
		members := cmd[2:]
		vals, found := cs.results(len(members))
		s.set(cmd[1]).MultiGet(members, vals, found)
		w.WriteArrayHeader(len(members))
		for i := range members {
			writeScore(w, vals[i], found[i])
		}
	case cmdZRem:
		if s.set(cmd[1]).Delete(cmd[2]) {
			// Only a removal that happened is logged: replaying a delete of
			// a key that was never there is harmless, but not logging one
			// that was would resurrect the key on recovery.
			lsn, err := s.logWrite(persist.OpDelete, cmd[1], cmd[2], 0)
			if err != nil {
				w.WriteError("persistence: " + err.Error())
				return
			}
			cs.lastWrite = lsn
			w.WriteInt(1)
		} else {
			w.WriteInt(0)
		}
	case cmdZRangeByLex:
		// ZRANGEBYLEX key start count — scan `count` members ≥ start.
		count, err := strconv.Atoi(string(cmd[3]))
		if err != nil || count < 0 {
			w.WriteError("count is not an integer")
			return
		}
		// Per-element system work: each member is copied out for the reply
		// (the work that §4.4's next-leaf prefetch overlaps with), since
		// the array header needs the count before the first member.
		cs.members, cs.ends = cs.members[:0], cs.ends[:0]
		s.set(cmd[1]).Scan(cmd[2], count, cs.collect)
		w.WriteArrayHeader(len(cs.ends))
		from := 0
		for _, end := range cs.ends {
			w.WriteBulk(cs.members[from:end])
			from = end
		}
		cs.trimScan()
	case cmdDBSize:
		w.WriteInt(int64(s.ks.totalLen()))
	case cmdFlushAll:
		s.ks.flush()
		lsn, err := s.logWrite(persist.OpFlushAll, nil, nil, 0)
		if err != nil {
			w.WriteError("persistence: " + err.Error())
			return
		}
		cs.lastWrite = lsn
		w.WriteSimple("OK")
	case cmdSave:
		// Foreground snapshot; execSeq may already hold the quiesce lock
		// (serial's cmdMu), so save must not retake it.
		if err := s.save(quiesced); err != nil {
			w.WriteError(err.Error())
			return
		}
		w.WriteSimple("OK")
	case cmdBGSave:
		if !s.Persistent() {
			w.WriteError(ErrNoPersistence.Error())
			return
		}
		if s.BGSave() {
			w.WriteSimple("Background saving started")
		} else {
			w.WriteSimple("Background save already in progress")
		}
	case cmdReplicaOf:
		s.cmdReplicaOf(w, cmd)
	case cmdReplconf:
		s.cmdReplconf(w, cs, cmd)
	case cmdWait:
		s.cmdWait(w, cs, cmd)
	case cmdInfo:
		s.cmdInfo(w, cmd)
	case cmdLatency:
		s.cmdLatency(w, cmd)
	case cmdSlowlog:
		s.cmdSlowlog(w, cmd)
	default:
		w.WriteError(fmt.Sprintf("unknown command '%s'", cmd[0]))
	}
}

// zscoreBatch answers a run of same-set ZSCOREs with one MultiGet. The run
// is observed as n zscore calls and one latency sample covering the batch;
// reply encoding is outside the sample, the MultiGet dominates.
func (s *Server) zscoreBatch(w *resp.Writer, cs *connState, cmds []command) {
	start := time.Now()
	cs.keys = cs.keys[:0]
	for _, c := range cmds {
		cs.keys = append(cs.keys, c.args[2])
	}
	vals, found := cs.results(len(cmds))
	s.set(cmds[0].args[1]).MultiGet(cs.keys, vals, found)
	clear(cs.keys) // borrowed arguments: the scratch must not pin the read buffer
	s.observeZScoreRun(cmds[0].args, len(cmds), start)
	for i := range cmds {
		writeScore(w, vals[i], found[i])
	}
}

// writeScore writes one ZSCORE reply: the score as a bulk string, or the
// null bulk for a missing member.
func writeScore(w *resp.Writer, v uint64, ok bool) {
	if ok {
		w.WriteBulkUint(v)
	} else {
		w.WriteBulk(nil)
	}
}
