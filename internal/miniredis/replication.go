package miniredis

// Replication wiring: the mini-Redis faces of internal/repl. A durable
// server is a potential primary — its repl.Manager is created alongside the
// WAL and fed by the WAL's append hook — and any memory-only server can
// become a read replica with REPLICAOF (or the ReplicaOf method). Replicas
// reject client writes with -READONLY; their keyspace changes only through
// the replication applier, which reuses the same bulk-load and apply paths
// recovery uses, so engines (including sharded ones with range routers)
// cannot tell a replication sync from a local restart.

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/repl"
	"repro/internal/resp"
)

// connState is per-connection command context: the LSN of the connection's
// last logged write (the offset WAIT targets — Redis semantics: WAIT covers
// the writes THIS client issued), the listening port a replica announced
// before PSYNC, and scratch every command on the connection reuses, so
// batched reads allocate nothing once warm.
type connState struct {
	lastWrite  uint64
	listenPort string

	// MultiGet keys and results for collapsed ZSCORE runs and ZMSCORE.
	keys  [][]byte
	vals  []uint64
	found []bool
	// ZRANGEBYLEX's copied members: one arena, each member ending at the
	// matching offset in ends. collect is appendMember bound once, so a
	// scan passes the engine no fresh closure.
	members []byte
	ends    []int
	collect func(k []byte, v uint64) bool
}

// maxScanScratch bounds the ZRANGEBYLEX arena a connection keeps between
// commands, so one large scan does not pin its memory until the client
// disconnects.
const maxScanScratch = 64 << 10

func newConnState() *connState {
	cs := &connState{}
	cs.collect = cs.appendMember
	cs.resetScan()
	return cs
}

// resetScan starts the ZRANGEBYLEX scratch afresh. The arena is non-nil, so
// an empty member still replies as "$0", not null.
func (cs *connState) resetScan() { cs.members, cs.ends = make([]byte, 0, 64), nil }

// trimScan drops ZRANGEBYLEX scratch grown past maxScanScratch once its
// reply is written.
func (cs *connState) trimScan() {
	if cap(cs.members) > maxScanScratch || cap(cs.ends) > maxScanScratch/8 {
		cs.resetScan()
	}
}

// results returns n-long MultiGet result slices from the scratch.
func (cs *connState) results(n int) ([]uint64, []bool) {
	if cap(cs.vals) < n {
		cs.vals, cs.found = make([]uint64, n), make([]bool, n)
	}
	return cs.vals[:n], cs.found[:n]
}

func (cs *connState) appendMember(k []byte, _ uint64) bool {
	cs.members = append(cs.members, k...)
	cs.ends = append(cs.ends, len(cs.members))
	return true
}

// rejectReadonly answers a write command with -READONLY when this server is
// a replica, reporting whether it did. Only client writes are gated; the
// replication applier mutates the keyspace directly.
func (s *Server) rejectReadonly(w *resp.Writer) bool {
	if !s.isReplica() {
		return false
	}
	// A failed reply write is sticky in the bufio layer: serve's checked
	// Flush after the dispatch surfaces it and drops the connection, so no
	// ack is ever fabricated past a failed reply write.
	w.WriteErrorCode("READONLY You can't write against a read only replica.")
	return true
}

// isReplica reports whether a replica session is attached.
func (s *Server) isReplica() bool {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return s.replSess != nil
}

// ReplicaOf attaches this server to a primary as a read replica, replacing
// any existing session. Re-attaching to the SAME primary offers the old
// session's applied LSN in the handshake, so a broken link resumes with a
// partial sync where the primary's WAL retention allows. Only memory-only
// servers may be replicas: a replica's durability is the primary's job, and
// a local WAL would assign LSNs conflicting with the replicated ones.
// reconnectDelay tunes the session's reconnect pacing (0 = default).
func (s *Server) ReplicaOf(addr string, reconnectDelay time.Duration) (*repl.Replica, error) {
	if s.Persistent() {
		return nil, errors.New("miniredis: a persistent server cannot be a replica (run it memory-only)")
	}
	s.replMu.Lock()
	var resume uint64
	if s.lastMaster == addr {
		resume = s.lastApplied // re-attach after a detach: offer a partial sync
	}
	if old := s.replSess; old != nil {
		if old.MasterAddr() == addr {
			resume = old.Applied()
		}
		s.replSess = nil
		// Stop asynchronously: a REPLICAOF dispatched in serial mode holds
		// cmdMu, and a synchronous Stop would wait on an applier batch that
		// is itself waiting for cmdMu. The old connection closes
		// immediately; at most one already-read batch still applies, and
		// the new session's full sync replaces the keyspace regardless.
		go old.Stop()
	}
	listen := ""
	if s.ln != nil {
		listen = s.ln.Addr().String()
	}
	sess := repl.StartReplica(repl.ReplicaConfig{
		Addr:           addr,
		ListenAddr:     listen,
		Target:         replTarget{s},
		ResumeFrom:     resume,
		ReconnectDelay: reconnectDelay,
	})
	s.replSess = sess
	s.lastMaster = addr
	s.replMu.Unlock()
	return sess, nil
}

// ReplicaOfNoOne detaches the replica session (REPLICAOF NO ONE) and waits
// for it to stop. The keyspace keeps whatever was applied; the server
// accepts writes again.
func (s *Server) ReplicaOfNoOne() { s.detachReplica(true) }

// detachReplica clears the replica session, remembering its master address
// and applied LSN so a later ReplicaOf back to the same primary can offer a
// partial resync instead of re-shipping everything. wait=false stops the
// session on a goroutine — required when the caller holds cmdMu (see
// ReplicaOf).
func (s *Server) detachReplica(wait bool) {
	s.replMu.Lock()
	old := s.replSess
	s.replSess = nil
	if old != nil {
		s.lastMaster, s.lastApplied = old.MasterAddr(), old.Applied()
	}
	s.replMu.Unlock()
	if old == nil {
		return
	}
	if wait {
		old.Stop()
		// The applier may have landed one more batch between the capture
		// above and the stop; record the final cursor (unless a new session
		// already took over).
		s.replMu.Lock()
		if s.replSess == nil && s.lastMaster == old.MasterAddr() {
			s.lastApplied = old.Applied()
		}
		s.replMu.Unlock()
	} else {
		go old.Stop()
	}
}

// ReplicaSession returns the attached replica session, nil when this server
// is not a replica.
func (s *Server) ReplicaSession() *repl.Replica {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return s.replSess
}

// ReplManager returns the primary-side replication manager, nil on
// memory-only servers.
func (s *Server) ReplManager() *repl.Manager { return s.repl }

// cmdReplicaOf handles REPLICAOF/SLAVEOF <host> <port> | NO ONE.
func (s *Server) cmdReplicaOf(w *resp.Writer, cmd [][]byte) {
	host, port := string(cmd[1]), string(cmd[2])
	if strings.EqualFold(host, "no") && strings.EqualFold(port, "one") {
		s.detachReplica(false) // async: may hold cmdMu (see ReplicaOf)
		w.WriteSimple("OK")
		return
	}
	if _, err := strconv.ParseUint(port, 10, 16); err != nil {
		w.WriteError("invalid port")
		return
	}
	if _, err := s.ReplicaOf(net.JoinHostPort(host, port), 0); err != nil {
		w.WriteError(err.Error())
		return
	}
	w.WriteSimple("OK")
}

// cmdReplconf handles pre-PSYNC REPLCONF options. ACK gets no reply (after
// the handshake acks are consumed by the manager's per-replica reader, not
// here); everything else is acknowledged and tolerated.
func (s *Server) cmdReplconf(w *resp.Writer, cs *connState, cmd [][]byte) {
	if len(cmd) == 3 && strings.EqualFold(string(cmd[1]), "listening-port") {
		cs.listenPort = string(cmd[2])
		w.WriteSimple("OK")
		return
	}
	if len(cmd) >= 2 && strings.EqualFold(string(cmd[1]), "ACK") {
		return
	}
	w.WriteSimple("OK")
}

// cmdWait handles WAIT <numreplicas> <timeout-ms>: it blocks until the
// given number of replicas have acknowledged this connection's last write
// (timeout 0 = indefinitely) and replies with the count that had at that
// moment. With no replication manager the answer is always 0. It always
// runs bare on the connection goroutine — dispatch splits WAIT out of
// every batch in every execution mode — so neither of its parks (the
// local-durability gate below, then WaitAcks) can hold a lock another
// connection's writes or the replication appliers need.
func (s *Server) cmdWait(w *resp.Writer, cs *connState, cmd [][]byte) {
	n, err1 := strconv.Atoi(string(cmd[1]))
	ms, err2 := strconv.Atoi(string(cmd[2]))
	if err1 != nil || err2 != nil || n < 0 || ms < 0 {
		w.WriteError("value is not an integer or out of range")
		return
	}
	// Local durability before replica counting: WAIT's reply must never
	// claim more than the log can back (acks must not run ahead of
	// durability, even though replication shipping may). Commit parks on
	// the WAL's syncer under every policy, and its LSN makes a lazy
	// cadence (everysec, no) sync at once. The gate applies identically in
	// every execution mode, pipelined or lone: dispatch guarantees no
	// execution lock is held here, so parking stalls only this connection.
	if s.wal != nil && cs.lastWrite > 0 {
		if err := s.wal.Commit(cs.lastWrite); err != nil {
			w.WriteError("persistence: " + err.Error())
			return
		}
	}
	if s.repl == nil {
		w.WriteInt(0)
		return
	}
	got := s.repl.WaitAcks(cs.lastWrite, n, time.Duration(ms)*time.Millisecond)
	w.WriteInt(int64(got))
}

// cmdInfo handles INFO [section]. Replication, persistence and clients
// make up the default reply; commandstats and latencystats — Redis's
// optional sections — come only when named, since their size grows with
// the command set. Fields follow Redis's spelling where one exists so
// existing tooling parses them.
func (s *Server) cmdInfo(w *resp.Writer, cmd [][]byte) {
	section := ""
	if len(cmd) == 2 {
		section = strings.ToLower(string(cmd[1]))
	}
	want := func(name string) bool {
		if section == "" {
			return name == "replication" || name == "persistence" || name == "clients"
		}
		return section == name
	}
	var b strings.Builder
	sep := func() {
		if b.Len() > 0 {
			b.WriteString("\r\n")
		}
	}
	if want("replication") {
		s.appendReplicationInfo(&b)
	}
	if want("persistence") {
		sep()
		s.appendPersistenceInfo(&b)
	}
	if want("clients") {
		sep()
		s.appendClientsInfo(&b)
	}
	if want("commandstats") {
		sep()
		s.appendCommandStats(&b)
	}
	if want("latencystats") {
		sep()
		s.appendLatencyStats(&b)
	}
	w.WriteBulk([]byte(b.String()))
}

// appendReplicationInfo writes the "# Replication" INFO section.
func (s *Server) appendReplicationInfo(b *strings.Builder) {
	b.WriteString("# Replication\r\n")
	if sess := s.ReplicaSession(); sess != nil {
		host, port, _ := net.SplitHostPort(sess.MasterAddr())
		status := "down"
		if sess.LinkUp() {
			status = "up"
		}
		fmt.Fprintf(b, "role:slave\r\nmaster_host:%s\r\nmaster_port:%s\r\nmaster_link_status:%s\r\nslave_repl_offset:%d\r\n",
			host, port, status, sess.Applied())
	} else {
		b.WriteString("role:master\r\n")
		var last uint64
		var reps []repl.ReplicaInfo
		if s.repl != nil {
			last = s.repl.LastLSN()
			reps = s.repl.Replicas()
			sort.Slice(reps, func(i, j int) bool { return reps[i].Addr < reps[j].Addr })
		}
		fmt.Fprintf(b, "connected_slaves:%d\r\nmaster_repl_offset:%d\r\n", len(reps), last)
		for i, r := range reps {
			host, port, err := net.SplitHostPort(r.Addr)
			if err != nil {
				host, port = r.Addr, "0"
			}
			lag := int64(last) - int64(r.Acked)
			if lag < 0 {
				lag = 0
			}
			fmt.Fprintf(b, "slave%d:ip=%s,port=%s,ack_offset=%d,lag=%d\r\n", i, host, port, r.Acked, lag)
		}
	}
}

// appendPersistenceInfo writes the "# Persistence" INFO section: the fsync
// policy, the last assigned LSN, and the durable watermark — the pair that
// makes everysec's and no's ack-vs-durable gap observable (aof_last_lsn -
// aof_durable_lsn is exactly the writes a crash right now would lose).
func (s *Server) appendPersistenceInfo(b *strings.Builder) {
	b.WriteString("# Persistence\r\n")
	if s.wal == nil {
		b.WriteString("aof_enabled:0\r\n")
		return
	}
	last, durable := s.wal.LSN(), s.wal.DurableLSN()
	fmt.Fprintf(b, "aof_enabled:1\r\nappendfsync:%s\r\naof_last_lsn:%d\r\naof_durable_lsn:%d\r\naof_pending_records:%d\r\naof_appended_bytes:%d\r\n",
		s.fsyncPol, last, durable, last-durable, s.wal.AppendedBytes())
	s.appendWALMetricsInfo(b)
}

// servePSync hands a connection over to the replication manager for the
// rest of its lifetime. It runs on the connection's serve goroutine,
// outside cmdMu.
func (s *Server) servePSync(conn net.Conn, r *resp.Reader, w *resp.Writer, cs *connState, cmd [][]byte) {
	if s.repl == nil {
		w.WriteError("replication requires persistence (start the primary with a data dir)")
		w.Flush() //ctvet:ignore best-effort error reply on a handshake being rejected; the replica retries either way
		return
	}
	if !checkArity(w, cmdPSync, cmd) {
		w.Flush() //ctvet:ignore best-effort error reply on a handshake being rejected; the replica retries either way
		return
	}
	lsn, err := strconv.ParseUint(string(cmd[1]), 10, 64)
	if err != nil {
		w.WriteError("invalid PSYNC offset")
		w.Flush() //ctvet:ignore best-effort error reply on a handshake being rejected; the replica retries either way
		return
	}
	// Preload fence: a bulk load in flight bypasses the WAL, so a snapshot
	// cut now would ship a half-loaded keyspace. Waiting out the write lock
	// means every Preload that started before this handshake has finished
	// (and has raised the partial-sync fence) by the time the sync begins.
	s.bulkMu.Lock()
	s.bulkMu.Unlock() //nolint:staticcheck // the barrier IS the point
	addr := ""
	if cs.listenPort != "" {
		if host, _, err := net.SplitHostPort(conn.RemoteAddr().String()); err == nil {
			addr = net.JoinHostPort(host, cs.listenPort)
		}
	}
	s.repl.Serve(conn, r, w, lsn, addr)
}

// replTarget adapts the server to repl.Target: the replica session's
// single applier goroutine funnels all keyspace mutation through these
// three methods. Each takes the server's quiesce lock — cmdMu on a serial
// server, nothing under striped-conn, which only runs over concurrent-safe
// engines — because a serial server's engine may not be concurrent-safe:
// replicated writes must quiesce client reads exactly as local writes
// quiesce each other. Replicas are memory-only (no WAL), so holding the
// quiesce lock across a batch can never park on a group commit.
type replTarget struct{ s *Server }

func (t replTarget) FlushAll() {
	release := t.s.quiesce()
	defer release()
	t.s.ks.flush()
}

func (t replTarget) LoadSnapshot(sets []persist.SnapshotSet) error {
	release := t.s.quiesce()
	defer release()
	for _, set := range sets {
		ix := t.s.newSet(len(set.Keys))
		if _, err := index.BulkLoad(ix, set.Keys, set.Vals); err != nil {
			return fmt.Errorf("miniredis: bulk-loading replicated set %q: %w", set.Set, err)
		}
		t.s.ks.put(set.Set, ix)
	}
	return nil
}

func (t replTarget) ApplyBatch(recs []persist.Record) error {
	release := t.s.quiesce()
	defer release()
	for i := range recs {
		rec := &recs[i]
		switch rec.Op {
		case persist.OpSet:
			if _, err := t.s.set([]byte(rec.Set)).Set(rec.Key, rec.Val); err != nil {
				return err
			}
		case persist.OpDelete:
			// lookup, not set: deleting from an absent set must not create
			// it (the primary only logs deletes that removed something, but
			// a full sync may have landed us past that set's creation).
			if ix, ok := t.s.ks.lookup([]byte(rec.Set)); ok {
				ix.Delete(rec.Key)
			}
		case persist.OpFlushAll:
			t.s.ks.flush()
		default:
			return fmt.Errorf("miniredis: unexpected replicated op %d", rec.Op)
		}
	}
	return nil
}
