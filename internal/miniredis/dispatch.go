package miniredis

// The parse → route half of the command path. serve parses: it drains
// pipelined commands off the RESP reader into batches. dispatch routes: a
// PSYNC hands the connection to replication (handled in serve, since the
// connection itself changes hands), WAIT splits out of the batch in every
// execution mode, and the remaining segments go to the server's executor
// (executor.go). commands.go holds the per-command handlers.

import (
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"repro/internal/persist"
	"repro/internal/resp"
)

// maxPipelineBatch bounds how many pipelined commands one dispatch drains.
const maxPipelineBatch = 128

// connBufSize sizes each connection's read and write buffers. 16 KiB holds
// a full pipeline batch of typical commands while keeping per-connection
// memory at a quarter of the previous 64 KiB bufio default — at a thousand
// connections the difference is tens of megabytes of idle buffers (see
// TestManyConnectionsSoak).
const connBufSize = 16 << 10

func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	defer s.conns.Add(-1)
	r := resp.NewReaderSize(conn, connBufSize)
	w := resp.NewWriterSize(conn, connBufSize)
	cs := &connState{}
	batch := make([][][]byte, 0, maxPipelineBatch)
	for {
		cmd, err := r.ReadCommand()
		if err != nil {
			s.dropWithError(w, err)
			return
		}
		// Drain any further pipelined commands already buffered: the batch is
		// dispatched as a unit so independent lookups can share one MultiGet.
		// CommandBuffered (not Buffered) gates the drain so a half-received
		// command never blocks the reads while replies are withheld.
		batch = append(batch[:0], cmd)
		for r.CommandBuffered() && len(batch) < maxPipelineBatch {
			cmd, err = r.ReadCommand()
			if err != nil {
				break
			}
			batch = append(batch, cmd)
		}
		// PSYNC turns the connection into a replication feed: dispatch
		// whatever preceded it, then hand the connection to the manager for
		// its remaining lifetime.
		if i := psyncIndex(batch); i >= 0 {
			s.dispatch(w, batch[:i], cs)
			s.servePSync(conn, r, w, cs, batch[i])
			return
		}
		prevWrite := cs.lastWrite
		s.dispatch(w, batch, cs)
		// Group commit's ack barrier: the batch's replies are still only
		// buffered in w, so parking here — after dispatch released cmdMu and
		// the stripe write mutexes, before the flush that acknowledges —
		// delays nothing but this connection while one fsync covers the
		// whole pipeline. Async mode skips the wait: replies flush
		// immediately and DurableLSN reports how far durability lags.
		if s.fsyncPol == persist.FsyncGroup && cs.lastWrite > prevWrite {
			if cerr := s.wal.Commit(cs.lastWrite); cerr != nil {
				// The buffered replies contain acks for writes that never
				// became durable: drop the connection without flushing them.
				// A reset connection promises nothing; a flushed ":1" does.
				return
			}
		}
		if err != nil { // tail read error: answer what we got, then drop
			s.dropWithError(w, err)
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// dispatch routes one drained batch: WAIT commands split it, everything
// between them goes to the executor as one segment. WAIT runs bare on the
// connection goroutine in every mode — it parks, on the local-durability
// gate (WAL.Commit) and then on replica acks, so it must never hold cmdMu
// or anything else another connection's writes need. (Before the executor
// layer, only a LONE wait on a serial server got this treatment; a
// pipelined WAIT ran under cmdMu with the durability gate skipped. Now the
// gate and the replica-ack accounting are identical across serial and
// striped-conn, pipelined or not.)
func (s *Server) dispatch(w *resp.Writer, batch [][][]byte, cs *connState) {
	for i := 0; i < len(batch); {
		j := i
		for j < len(batch) && !isWaitCmd(batch[j]) {
			j++
		}
		if j > i {
			s.exec.run(w, batch[i:j], cs)
		}
		if j < len(batch) {
			// WAIT never flows through dispatchOne (it parks, so it runs
			// bare here), so it is observed at its own dispatch site. Its
			// latency sample deliberately includes the parks — the wait IS
			// the command.
			st := s.stats.cmds["wait"]
			errsBefore := w.ErrorsWritten()
			start := time.Now()
			s.cmdWait(w, cs, batch[j])
			s.observeCmd(st, w, batch[j], errsBefore, start)
			j++
		}
		i = j
	}
}

func isWaitCmd(cmd [][]byte) bool {
	return len(cmd) > 0 && strings.EqualFold(string(cmd[0]), "WAIT")
}

// psyncIndex finds a PSYNC command in a drained batch (-1 when absent). A
// replica never pipelines past its PSYNC, so anything after one would be
// handshake bytes misread as commands — the index lets serve stop exactly
// there.
func psyncIndex(batch [][][]byte) int {
	for i, cmd := range batch {
		if len(cmd) > 0 && strings.EqualFold(string(cmd[0]), "PSYNC") {
			return i
		}
	}
	return -1
}

// dropWithError ends a connection the way Redis does: a clean hangup (EOF
// between commands) just closes, but malformed input gets an
// "-ERR Protocol error" reply first, so the client can diagnose what it
// sent instead of seeing a silent disconnect. The reply rides the same
// flush as any replies already owed for the drained pipeline; flush errors
// are moot — the connection is being dropped either way.
func (s *Server) dropWithError(w *resp.Writer, err error) {
	if err != io.EOF {
		w.WriteError(fmt.Sprintf("Protocol error: %v", err))
	}
	w.Flush() //ctvet:ignore the connection is being dropped; this flush is best-effort diagnostics, not an ack
}
