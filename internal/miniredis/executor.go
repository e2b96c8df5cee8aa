package miniredis

// The execute stage of the command path (see dispatch.go for the parse →
// route stages): execSeq turns one WAIT-free, PSYNC-free pipeline segment
// into engine calls and writes every reply, in submission order, to the
// connection writer. The execution mode decides only whether it holds a
// lock while doing so:
//
//   - serial: Redis's model — every segment from every connection runs
//     under one cmdMu. Safe for any engine.
//   - striped-conn: each connection executes its own pipeline with no
//     execution lock at all; concurrency comes from connections. Only ever
//     runs over concurrent-safe engines: NewServerExec probes the factory
//     and falls back to serial otherwise.
//
// execSeq never parks on WAL.Commit — the group-commit ack barrier stays in
// serve, after execSeq returned and cmdMu is released.

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

// execSeq executes a segment strictly in order on the calling goroutine,
// under cmdMu in serial mode. Consecutive same-set ZSCOREs collapse into
// one MultiGet.
func (s *Server) execSeq(w *resp.Writer, seg []command, cs *connState) {
	quiesced := s.mode == ExecSerial
	if quiesced {
		s.cmdMu.Lock()
		defer s.cmdMu.Unlock()
	}
	for i := 0; i < len(seg); {
		j := i
		for j < len(seg) && seg[j].id == cmdZScore && len(seg[j].args) == 3 &&
			string(seg[j].args[1]) == string(seg[i].args[1]) {
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

// quiesce blocks command execution until the returned release is called —
// the window in which a snapshot of a non-concurrent engine may iterate,
// or the replication applier may mutate, without racing dispatch. Serial
// mode's quiesce lock IS cmdMu; striped-conn has none and needs none, since
// it only runs over engines that tolerate concurrent access.
func (s *Server) quiesce() func() {
	if s.mode == ExecSerial {
		s.cmdMu.Lock()
		return s.cmdMu.Unlock
	}
	return func() {}
}
