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
	cs := newConnState()
	batch := make([][][]byte, 0, maxPipelineBatch)
	for {
		var err error
		if batch, err = readBatch(r, batch[:0]); len(batch) == 0 {
			s.dropWithError(w, err)
			return
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

// readBatch blocks for one command, then drains every further command
// already buffered, up to maxPipelineBatch: the batch is dispatched as a
// unit so independent lookups can share one MultiGet. The drain reads with
// ReadBufferedCommand, so a half-received command never blocks the read
// while replies are withheld — and no read of the drain refills the buffer,
// so every argument of the batch, borrowed from it, stays valid until the
// next readBatch (see resp.Reader.ReadCommand). A non-nil error ended the
// batch early; an empty batch means nothing was read.
func readBatch(r *resp.Reader, batch [][][]byte) ([][][]byte, error) {
	cmd, err := r.ReadCommand()
	for ok := err == nil; ok; cmd, ok, err = r.ReadBufferedCommand() {
		batch = append(batch, cmd)
		if len(batch) == maxPipelineBatch {
			break
		}
	}
	return batch, err
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
			errsBefore := w.ErrorsWritten()
			start := time.Now()
			s.cmdWait(w, cs, batch[j])
			s.observeCmd(cmdWait, w, batch[j], errsBefore, start)
			j++
		}
		i = j
	}
}

func isWaitCmd(cmd [][]byte) bool { return cmdOf(cmd) == cmdWait }

// psyncIndex finds a PSYNC command in a drained batch (-1 when absent). A
// replica never pipelines past its PSYNC, so anything after one would be
// handshake bytes misread as commands — the index lets serve stop exactly
// there.
func psyncIndex(batch [][][]byte) int {
	for i, cmd := range batch {
		if cmdOf(cmd) == cmdPSync {
			return i
		}
	}
	return -1
}

// cmdID identifies a command by name. The IDs below numFamilies double as
// stat family indexes (stats.go), in INFO presentation order.
type cmdID uint8

const (
	cmdPing cmdID = iota
	cmdZAdd
	cmdZScore
	cmdZMScore
	cmdZRem
	cmdZRangeByLex
	cmdDBSize
	cmdFlushAll
	cmdSave
	cmdBGSave
	cmdReplicaOf // and its legacy spelling, SLAVEOF
	cmdReplconf
	cmdWait
	cmdInfo
	cmdLatency
	cmdSlowlog
	cmdUnknown // unrecognized or empty commands; the last stat family
	cmdPSync   // no stat family: PSYNC leaves the command path (servePSync)
)

const numFamilies = cmdUnknown + 1

// cmdNames is every command's lower-case name, indexed by ID: what
// classify matches and, below numFamilies, the stat family names.
var cmdNames = [...]string{
	cmdPing: "ping", cmdZAdd: "zadd", cmdZScore: "zscore", cmdZMScore: "zmscore",
	cmdZRem: "zrem", cmdZRangeByLex: "zrangebylex", cmdDBSize: "dbsize",
	cmdFlushAll: "flushall", cmdSave: "save", cmdBGSave: "bgsave",
	cmdReplicaOf: "replicaof", cmdReplconf: "replconf", cmdWait: "wait",
	cmdInfo: "info", cmdLatency: "latency", cmdSlowlog: "slowlog",
	cmdUnknown: "unknown", cmdPSync: "psync",
}

// cmdOf classifies a command by its first argument.
func cmdOf(cmd [][]byte) cmdID {
	if len(cmd) == 0 {
		return cmdUnknown
	}
	return classify(cmd[0])
}

// classify maps a command name to its ID, ASCII case-insensitively as
// Redis matches names. It allocates nothing: the name is lower-cased into
// a stack array as long as the longest name, and a longer name is unknown
// without a look.
func classify(name []byte) cmdID {
	var low [len("zrangebylex")]byte
	if len(name) > len(low) {
		return cmdUnknown
	}
	for i, c := range name {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		low[i] = c
	}
	s := low[:len(name)]
	for id, n := range cmdNames {
		if n == string(s) {
			return cmdID(id)
		}
	}
	if string(s) == "slaveof" {
		return cmdReplicaOf
	}
	return cmdUnknown
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
