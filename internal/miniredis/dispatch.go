package miniredis

// The parse → route half of the command path, and the command table. serve
// parses: it drains pipelined commands off the RESP reader into batches,
// classifying each command once as it is read. dispatch routes: a PSYNC
// hands the connection to replication (handled in serve, since the
// connection itself changes hands), WAIT splits out of the batch, and the
// remaining segments run through execSeq (executor.go). cmdSpecs declares
// what each command accepts; commands.go holds the handlers.

import (
	"fmt"
	"io"
	"math"
	"net"
	"strings"

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

// command is one drained command: its arguments, borrowed from the read
// buffer, and its ID, classified once when readBatch read it.
type command struct {
	id   cmdID
	args [][]byte
}

func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	defer s.conns.Add(-1)
	r := resp.NewReaderSize(conn, connBufSize)
	w := resp.NewWriterSize(conn, connBufSize)
	cs := newConnState()
	batch := make([]command, 0, maxPipelineBatch)
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
			s.servePSync(conn, r, w, cs, batch[i].args)
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
func readBatch(r *resp.Reader, batch []command) ([]command, error) {
	args, err := r.ReadCommand()
	for ok := err == nil; ok; args, ok, err = r.ReadBufferedCommand() {
		id := cmdUnknown
		if len(args) > 0 {
			id = classify(args[0])
		}
		batch = append(batch, command{id, args})
		if len(batch) == maxPipelineBatch {
			break
		}
	}
	return batch, err
}

// dispatch routes one drained batch: WAIT commands split it, everything
// between them runs as one segment through execSeq. WAIT runs bare on the
// connection goroutine in every mode — it parks, on the local-durability
// gate (WAL.Commit) and then on replica acks, so it must never hold cmdMu
// or anything else another connection's writes need. Its latency sample
// includes the parks: the wait is the command.
func (s *Server) dispatch(w *resp.Writer, batch []command, cs *connState) {
	for len(batch) > 0 {
		j := 0
		for j < len(batch) && batch[j].id != cmdWait {
			j++
		}
		if j > 0 {
			s.execSeq(w, batch[:j], cs)
		}
		if j < len(batch) {
			s.dispatchOne(w, batch[j], cs, false)
			j++
		}
		batch = batch[j:]
	}
}

// psyncIndex finds a PSYNC command in a drained batch (-1 when absent). A
// replica never pipelines past its PSYNC, so anything after one would be
// handshake bytes misread as commands — the index lets serve stop exactly
// there.
func psyncIndex(batch []command) int {
	for i := range batch {
		if batch[i].id == cmdPSync {
			return i
		}
	}
	return -1
}

// cmdID identifies a command by name: its index in cmdSpecs. The IDs below
// numFamilies double as stat family indexes (stats.go), in INFO
// presentation order.
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

// cmdSpec is one command's entry in cmdSpecs.
type cmdSpec struct {
	name     string // lower case: what classify matches, and the stat family name
	min, max int    // accepted len(cmd), the name included
	write    bool   // mutates the keyspace: -READONLY on a replica, runs under the write lock
	keyed    bool   // cmd[1] names the sorted set the command touches
}

// many is an unbounded argument count.
const many = math.MaxInt

// cmdSpecs is the command table, indexed by cmdID: the one list of the
// commands the server speaks. runCommand's prologue, classify, stripeOf
// and the stat families all read it. Commands that take any arguments, or
// check their own shapes, accept 1..many.
var cmdSpecs = [...]cmdSpec{
	cmdPing:        {name: "ping", min: 1, max: many},
	cmdZAdd:        {name: "zadd", min: 4, max: 4, write: true, keyed: true},
	cmdZScore:      {name: "zscore", min: 3, max: 3, keyed: true},
	cmdZMScore:     {name: "zmscore", min: 3, max: many, keyed: true},
	cmdZRem:        {name: "zrem", min: 3, max: 3, write: true, keyed: true},
	cmdZRangeByLex: {name: "zrangebylex", min: 4, max: 4, keyed: true},
	cmdDBSize:      {name: "dbsize", min: 1, max: many},
	cmdFlushAll:    {name: "flushall", min: 1, max: many, write: true},
	cmdSave:        {name: "save", min: 1, max: many},
	cmdBGSave:      {name: "bgsave", min: 1, max: many},
	cmdReplicaOf:   {name: "replicaof", min: 3, max: 3},
	cmdReplconf:    {name: "replconf", min: 1, max: many},
	cmdWait:        {name: "wait", min: 3, max: 3},
	cmdInfo:        {name: "info", min: 1, max: 2},
	cmdLatency:     {name: "latency", min: 2, max: many},
	cmdSlowlog:     {name: "slowlog", min: 2, max: many},
	cmdUnknown:     {name: "unknown", min: 1, max: many},
	cmdPSync:       {name: "psync", min: 2, max: 2},
}

// maxCmdName is the longest name classify can match; TestCommandTable
// fails for a spec whose name is longer.
const maxCmdName = 16

// classify maps a command name to its ID, ASCII case-insensitively as
// Redis matches names. It allocates nothing: the name is lower-cased into
// a stack array, and a name longer than maxCmdName is unknown unread.
func classify(name []byte) cmdID {
	var low [maxCmdName]byte
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
	for id := range cmdSpecs {
		if cmdSpecs[id].name == string(s) {
			return cmdID(id)
		}
	}
	if string(s) == "slaveof" {
		return cmdReplicaOf
	}
	return cmdUnknown
}

// checkArity answers a command whose argument count its spec rejects with
// the arity error, reporting whether the count was accepted.
func checkArity(w *resp.Writer, id cmdID, cmd [][]byte) bool {
	sp := &cmdSpecs[id]
	if sp.min <= len(cmd) && len(cmd) <= sp.max {
		return true
	}
	w.WriteError("wrong number of arguments for " + strings.ToUpper(sp.name))
	return false
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
