package miniredis

// The execute stage of the command path (see dispatch.go for the parse →
// route stages): an executor turns one WAIT-free, PSYNC-free pipeline
// segment into engine calls and writes every reply, in submission order,
// to the connection writer. Two strategies exist:
//
//   - serialExecutor: Redis's model — every segment from every connection
//     runs under one cmdMu. Safe for any engine.
//   - connExecutor: each connection executes its own pipeline sequentially
//     with no execution lock at all; concurrency comes from connections.
//     Only ever runs over concurrent-safe engines: NewServerExec probes the
//     factory and falls back to serial otherwise.
//
// No executor path ever parks on WAL.Commit — the group-commit ack barrier
// stays in serve, after the executor returned and cmdMu is released.

import (
	"fmt"

	"repro/internal/resp"
)

// ExecMode selects how a connection's drained pipeline executes; see the
// package comment above and the README's "Execution modes" section.
type ExecMode string

const (
	// ExecSerial mimics Redis's single-threaded command loop: one cmdMu
	// serializes every segment from every connection. Safe for any engine.
	ExecSerial ExecMode = "serial"
	// ExecStripedConn executes each connection's pipeline on its own
	// goroutine with no execution lock. Requires a concurrent-safe engine;
	// NewServerExec runs ExecSerial instead when the engine is not.
	ExecStripedConn ExecMode = "striped-conn"
)

// ParseExecMode parses a -exec flag value.
func ParseExecMode(s string) (ExecMode, error) {
	switch m := ExecMode(s); m {
	case ExecSerial, ExecStripedConn:
		return m, nil
	}
	return "", fmt.Errorf("miniredis: unknown exec mode %q (want serial or striped-conn)", s)
}

// executor runs one WAIT-free, PSYNC-free pipeline segment (dispatch
// splits those out before any executor sees the batch) and writes every
// reply, in submission order, to w.
type executor interface {
	run(w *resp.Writer, seg [][][]byte, cs *connState)
}

type serialExecutor struct{ s *Server }

func (e serialExecutor) run(w *resp.Writer, seg [][][]byte, cs *connState) {
	e.s.cmdMu.Lock()
	defer e.s.cmdMu.Unlock()
	e.s.execSeq(w, seg, cs, true)
}

type connExecutor struct{ s *Server }

func (e connExecutor) run(w *resp.Writer, seg [][][]byte, cs *connState) {
	e.s.execSeq(w, seg, cs, false)
}

// execSeq executes a segment strictly in order on the calling goroutine.
// Consecutive same-set ZSCOREs collapse into one MultiGet. quiesced says
// the caller holds this server's quiesce lock (serial mode's cmdMu), so
// SAVE must not retake it.
func (s *Server) execSeq(w *resp.Writer, seg [][][]byte, cs *connState, quiesced bool) {
	for i := 0; i < len(seg); {
		j := i
		for j < len(seg) && isZScore(seg[j]) &&
			(j == i || string(seg[j][1]) == string(seg[i][1])) {
			j++
		}
		if j-i >= 2 {
			s.zscoreBatch(w, cs, seg[i:j])
			i = j
			continue
		}
		s.dispatchOne(w, seg[i], cs, quiesced)
		i++
	}
}

// quiesce blocks every executor until the returned release is called — the
// window in which a snapshot of a non-concurrent engine may iterate, or
// the replication applier may mutate, without racing dispatch. Serial
// mode's quiesce lock IS cmdMu; striped-conn has none and needs none, since
// it only runs over engines that tolerate concurrent access.
func (s *Server) quiesce() func() {
	if s.mode == ExecSerial {
		s.cmdMu.Lock()
		return s.cmdMu.Unlock
	}
	return func() {}
}
