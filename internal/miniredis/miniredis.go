// Package miniredis is a small Redis-like in-memory data store over RESP,
// reproducing the paper's full-system benchmark (§6.8, Figure 13): its
// sorted-set type has a pluggable ordered-index engine, so the Cuckoo Trie
// and every baseline can replace Redis's default hashtable+skiplist pair.
// The client and server run over loopback TCP, and per-element work during
// scans happens in the server loop — which is exactly the setting where the
// Cuckoo Trie's next-leaf prefetch overlaps with system work (§4.4).
//
// The commands it speaks are the ones declared in cmdSpecs (dispatch.go),
// with their argument counts: the sorted-set commands ZADD, ZSCORE,
// ZMSCORE, ZRANGEBYLEX and ZREM; PING, DBSIZE and FLUSHALL; SAVE and
// BGSAVE; REPLICAOF (or SLAVEOF), REPLCONF, PSYNC and WAIT for
// replication; INFO, LATENCY and SLOWLOG for observability.
//
// With EnablePersistence the server is durable (see internal/persist):
// writes append to a segmented WAL after they apply, SAVE/BGSAVE cut
// snapshots through the engines' ordered cursors — BGSAVE blocking
// writers only for the all-stripe set-list capture — and boot-time
// recovery bulk-loads the newest valid snapshot before replaying the WAL
// tail.
//
// The server drains pipelined commands in batches: runs of ZSCOREs against
// the same sorted set collapse into one MultiGet, so an MLP-aware engine
// overlaps the whole pipeline's DRAM misses (§4.4 generalized across keys).
// The keyspace itself — set name → index — is striped across power-of-two
// lock stripes (set-name hash routing), so concurrent connections never
// serialize on a single keyspace mutex just to resolve which set a command
// targets.
//
// Command execution is an explicit layer: serve parses and classifies
// (dispatch.go), dispatch routes, and execSeq (executor.go) runs each
// segment under one of two modes — serial (Redis's one-lock loop, any
// engine) or striped-conn (per-connection, lockless, concurrent-safe
// engines only). See ExecMode.
package miniredis

import (
	"errors"
	"fmt"
	"hash/maphash"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/repl"
	"repro/internal/resp"
	"repro/internal/sharded"
)

// Engine names a sorted-set index implementation.
type Engine string

// EngineFactory creates an index for a sorted set.
type EngineFactory func(capacityHint int) index.Index

// ShardedFactory wraps an engine factory so every sorted set is an N-shard
// scatter-gather index (see internal/sharded): pipelined ZSCORE runs that
// collapse into one MultiGet then fan out across cores, one sub-batch per
// shard, composing cross-core parallelism with each shard's batch path.
// Keys route by hash; see ShardedFactoryWithRouter for range routing.
func ShardedFactory(inner EngineFactory, shards int) EngineFactory {
	return ShardedFactoryWithRouter(inner, shards, sharded.NewHashRouter)
}

// ShardedFactoryWithRouter is ShardedFactory with an explicit routing mode:
// under sharded.NewSampledRouter (the "range" mode) the shards
// range-partition each sorted set, so a ZRANGEBYLEX whose range lives in
// one shard bypasses the k-way merge.
func ShardedFactoryWithRouter(inner EngineFactory, shards int, mk sharded.RouterMaker) EngineFactory {
	return func(capacityHint int) index.Index {
		return sharded.NewWithRouter(shards, capacityHint, inner, mk)
	}
}

// keyspace maps set names to their indexes across power-of-two lock
// stripes, so concurrent connections resolving different sets do not
// serialize on one mutex: a set name hashes to a stripe, and only that
// stripe's lock is taken. Lookups of existing sets take the stripe's read
// lock; creation upgrades to the write lock and re-checks, so two
// connections racing to create the same set always converge on one index.
type keyspace struct {
	seed    maphash.Seed
	mask    uint64
	stripes []stripe
}

type stripe struct {
	mu   sync.RWMutex
	sets map[string]index.Index
	// Pad each stripe to its own cache line (RWMutex 24B + map header 8B
	// = 32B on 64-bit): without it two adjacent stripes share a line and
	// their lock traffic false-shares, re-serializing at the coherence
	// level what the striping is meant to spread.
	_ [32]byte
}

// newKeyspace builds a keyspace with n stripes rounded up to a power of
// two.
func newKeyspace(n int) *keyspace {
	n = sharded.RoundShards(n)
	ks := &keyspace{
		seed:    maphash.MakeSeed(),
		mask:    uint64(n - 1),
		stripes: make([]stripe, n),
	}
	for i := range ks.stripes {
		ks.stripes[i].sets = make(map[string]index.Index)
	}
	return ks
}

func (ks *keyspace) stripeIdx(name []byte) int {
	return int(maphash.Bytes(ks.seed, name) & ks.mask)
}

// get returns the named set, creating it with mk on first use. Names come
// straight from borrowed command arguments: indexing the map with
// string(name) does not allocate, and only creation copies the name.
func (ks *keyspace) get(name []byte, mk func() index.Index) index.Index {
	st := &ks.stripes[ks.stripeIdx(name)]
	st.mu.RLock()
	ix, ok := st.sets[string(name)]
	st.mu.RUnlock()
	if ok {
		return ix
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if ix, ok := st.sets[string(name)]; ok {
		return ix // lost the creation race: use the winner's index
	}
	ix = mk()
	st.sets[string(name)] = ix
	return ix
}

// lookup returns the named set without creating it. The replication applier
// uses it for OpDelete: deleting from a set that does not exist must not
// conjure an empty index.
func (ks *keyspace) lookup(name []byte) (index.Index, bool) {
	st := &ks.stripes[ks.stripeIdx(name)]
	st.mu.RLock()
	ix, ok := st.sets[string(name)]
	st.mu.RUnlock()
	return ix, ok
}

// put installs ix as the named set, replacing any set of that name — how
// recovery and a replicated full sync land their bulk-loaded indexes.
func (ks *keyspace) put(name string, ix index.Index) {
	st := &ks.stripes[ks.stripeIdx([]byte(name))]
	st.mu.Lock()
	st.sets[name] = ix
	st.mu.Unlock()
}

// lockAll / rlockAll acquire every stripe in index order — one global
// order, so keyspace-wide operations (FLUSHALL, DBSIZE, BGSAVE's set
// collection) can never deadlock against each other and always observe a
// CONSISTENT set list: before the fix, flush cleared stripe-by-stripe
// while a concurrent snapshot or DBSIZE walked them, so either could see
// half the keyspace flushed and half not.
func (ks *keyspace) lockAll() {
	for i := range ks.stripes {
		ks.stripes[i].mu.Lock()
	}
}

func (ks *keyspace) unlockAll() {
	for i := range ks.stripes {
		ks.stripes[i].mu.Unlock()
	}
}

func (ks *keyspace) rlockAll() {
	for i := range ks.stripes {
		ks.stripes[i].mu.RLock()
	}
}

func (ks *keyspace) runlockAll() {
	for i := range ks.stripes {
		ks.stripes[i].mu.RUnlock()
	}
}

// totalLen sums the key counts of every set (DBSIZE), against a consistent
// set list: all stripes are read-locked before any is summed, so a racing
// FLUSHALL is observed entirely or not at all.
func (ks *keyspace) totalLen() int {
	ks.rlockAll()
	defer ks.runlockAll()
	total := 0
	for i := range ks.stripes {
		for _, ix := range ks.stripes[i].sets {
			total += ix.Len()
		}
	}
	return total
}

// flush drops every set (FLUSHALL), atomically with respect to every other
// keyspace-wide operation: all stripes are write-locked before any is
// cleared.
func (ks *keyspace) flush() {
	ks.lockAll()
	defer ks.unlockAll()
	for i := range ks.stripes {
		ks.stripes[i].sets = make(map[string]index.Index)
	}
}

// snapshotSets collects every set's name and cursor under the all-stripe
// read lock — the only moment BGSAVE blocks writers (and only
// those resolving a set name). Sets are returned in name order so
// snapshots of the same state are byte-identical.
func (ks *keyspace) snapshotSets() []persist.SetSnapshot {
	ks.rlockAll()
	defer ks.runlockAll()
	var sets []persist.SetSnapshot
	for i := range ks.stripes {
		for name, ix := range ks.stripes[i].sets {
			sets = append(sets, persist.SetSnapshot{Set: name, Cursor: ix.NewCursor()})
		}
	}
	sort.Slice(sets, func(i, j int) bool { return sets[i].Set < sets[j].Set })
	return sets
}

// Server is the mini-Redis server.
type Server struct {
	create   func() index.Index // factory bound to the capacity hint once
	factory  EngineFactory
	capacity int
	ks       *keyspace
	ln       net.Listener
	wg       sync.WaitGroup
	mode     ExecMode     // command execution strategy; see executor.go
	stats    *serverStats // command observability (stats.go): counters, histograms, slowlog
	cmdMu    sync.Mutex   // ExecSerial's one-at-a-time command loop lock

	// maxConns caps simultaneous client connections; 0 = unlimited. Set
	// via SetMaxConns before Listen. Connections over the cap are refused
	// with -ERR and counted in rejected (INFO clients).
	maxConns int
	conns    atomic.Int64
	rejected atomic.Int64

	// Persistence (nil/zero when the server is memory-only).
	wal        *persist.WAL
	dataDir    string
	fsyncPol   persist.FsyncPolicy
	rewriteAt  int64        // WAL bytes since last snapshot that trigger one; 0 disables
	savedBytes atomic.Int64 // WAL AppendedBytes watermark at the last snapshot cut
	saving     atomic.Bool  // one BGSAVE at a time
	saveMu     sync.Mutex   // serializes snapshot cuts (SAVE vs BGSAVE)
	// quiesceSaves: the engine is not concurrent-safe (so the server runs
	// ExecSerial), and snapshot cursors cannot run against live writers —
	// saves must hold cmdMu, always taken BEFORE saveMu; dispatch already
	// holds it when a SAVE command calls save, so the order is fixed
	// everywhere.
	quiesceSaves bool
	// writeMus (persistent concurrent servers only) order apply+log per
	// keyspace stripe; see lockWrite.
	writeMus  []sync.Mutex
	bgWg      sync.WaitGroup
	bgSaveErr error // last background save failure, under saveMu

	// Replication (see internal/repl and replication.go in this package).
	// repl is the primary-side manager, created with persistence; bulkMu
	// fences bulk loads against full-sync snapshot cuts (Preload holds the
	// read lock, a PSYNC handshake write-locks to wait in-flight loads
	// out). replMu guards the replica-side session.
	repl        *repl.Manager
	fanoutBytes int
	bulkMu      sync.RWMutex
	replMu      sync.Mutex
	replSess    *repl.Replica
	lastMaster  string // resume cache: last primary this server replicated
	lastApplied uint64 // ...and the LSN applied when that session detached
}

// NewServerExec creates a server whose sorted sets use the given engine,
// under an execution mode (see ExecMode in executor.go): ExecSerial mimics
// Redis's single-threaded command loop; ExecStripedConn runs each
// connection's commands with no execution lock, so it is honored only when
// the engine is concurrent-safe — every set comes from the same factory, so
// one throwaway instance answers that. Otherwise, and for an unknown mode,
// the server runs ExecSerial, the one strategy that is safe for every
// engine; Mode reports the outcome. The keyspace is striped in both modes,
// so set resolution never serializes connections on a single lock.
// capacityHint sizes each set a command creates; 0 lets the set grow from
// the engine default.
func NewServerExec(factory EngineFactory, capacityHint int, mode ExecMode) *Server {
	s := &Server{
		create:   func() index.Index { return factory(capacityHint) },
		factory:  factory,
		capacity: capacityHint,
		ks:       newKeyspace(max(8, runtime.GOMAXPROCS(0))),
		mode:     ExecSerial,
		stats:    newServerStats(),
	}
	if mode == ExecStripedConn && index.IsConcurrent(factory(1)) {
		s.mode = ExecStripedConn
	}
	return s
}

// Mode reports the execution mode the server actually runs, which is
// ExecSerial when ExecStripedConn was requested over a non-concurrent
// engine.
func (s *Server) Mode() ExecMode { return s.mode }

// Stripes reports the power-of-two keyspace stripe count.
func (s *Server) Stripes() int { return len(s.ks.stripes) }

// ErrNoPersistence reports a SAVE/BGSAVE against a memory-only server.
var ErrNoPersistence = errors.New("miniredis: persistence not enabled")

// PersistOptions configures EnablePersistence. Only Policy is needed in
// the common case; the rest are exposed mainly so tests can force tiny WAL
// segments and replication fan-out buffers to exercise retention edges.
type PersistOptions struct {
	Policy       persist.FsyncPolicy
	SegmentBytes int64 // WAL segment rotation threshold; 0 = persist default
	FanoutBytes  int   // replication fan-out ring bound; 0 = repl default
	// AutoRewriteBytes caps the WAL tail's estimated replay cost: once the
	// record bytes appended since the last snapshot exceed it, a background
	// snapshot (the BGSAVE + RemoveObsolete path) rewrites the log
	// automatically. It is the one automatic snapshot trigger; 0 disables.
	AutoRewriteBytes int64
}

// EnablePersistence makes the server durable: it recovers dir's newest
// valid snapshot plus WAL tail into the keyspace (each set bulk-loaded, so
// sharded engines ride the partitioned ingest and untrained range
// routers train from the snapshot stream), then opens the WAL for the
// write path. ZADD/ZREM/FLUSHALL append a record after they apply, synced
// per opts.Policy; opts.AutoRewriteBytes > 0 triggers a background
// snapshot once that many WAL bytes follow the last one. Must be called
// before Listen. The returned Result reports what was recovered.
//
// Preload bypasses the WAL by design (logging a bulk load record-by-record
// would forfeit the partitioned ingest); call Save after preloading to
// make the loaded keys durable.
func (s *Server) EnablePersistence(dir string, opts PersistOptions) (*persist.Result, error) {
	if s.ln != nil {
		return nil, errors.New("miniredis: enable persistence before Listen")
	}
	if s.wal != nil {
		return nil, errors.New("miniredis: persistence already enabled")
	}
	res, err := persist.Recover(dir, func(_ string, keys int) index.Index { return s.newSet(keys) })
	if err != nil {
		return nil, err
	}
	for name, ix := range res.Sets {
		s.ks.put(name, ix)
	}
	// FloorLSN: a durable snapshot can be ahead of an unsynced WAL tail
	// after a crash; new LSNs must start past everything recovery used, or
	// the next recovery's LSN filter would skip acknowledged writes.
	wal, err := persist.OpenWAL(dir, persist.WALOptions{
		Policy:       opts.Policy,
		SegmentBytes: opts.SegmentBytes,
		FloorLSN:     res.LastLSN,
	})
	if err != nil {
		return nil, err
	}
	s.wal, s.dataDir = wal, dir
	s.fsyncPol, s.rewriteAt = opts.Policy, opts.AutoRewriteBytes
	// A durable server can feed read replicas: every WAL append publishes
	// its wire frame into the fan-out ring, in LSN order because the hook
	// runs under the WAL's own mutex.
	s.repl = repl.NewManager(repl.Config{
		Dir:         dir,
		LastLSN:     wal.LSN(),
		FanoutBytes: opts.FanoutBytes,
		CutSnapshot: s.snapshotForSync,
	})
	wal.SetOnAppend(s.repl.Publish)
	// Probe the engine once: every set comes from the same factory, so one
	// throwaway instance says whether snapshots may run against live
	// writers or must quiesce execution first (which implies serial mode —
	// see NewServerExec — whose quiesce lock is cmdMu).
	s.quiesceSaves = !index.IsConcurrent(s.factory(1))
	if s.mode != ExecSerial {
		// Concurrent command execution needs explicit write ordering: the
		// WAL replays in LSN order, so two racing writes to the same set
		// must log in the order they applied or recovery rebuilds a state
		// the live server never exposed. Serial mode gets this from cmdMu;
		// striped-conn pins it per stripe.
		s.writeMus = make([]sync.Mutex, len(s.ks.stripes))
	}
	return res, nil
}

// newSet builds the index for a set arriving with the given key count —
// from a recovered or a replicated snapshot — sized by that exact count,
// never by the hint the snapshot records (a damaged or hostile image can
// name any size). An empty set falls back to the server's capacity hint.
func (s *Server) newSet(keys int) index.Index {
	if keys <= 0 {
		keys = s.capacity
	}
	return s.factory(keys)
}

// lockWrite makes apply+log atomic for one set's stripe on a persistent
// concurrent server (no-op otherwise — serial servers order writes via
// cmdMu, memory-only servers have no log to keep in order). It returns the
// unlock, or nil when no locking is needed.
func (s *Server) lockWrite(set []byte) func() {
	if s.writeMus == nil {
		return nil
	}
	mu := &s.writeMus[s.ks.stripeIdx(set)]
	mu.Lock()
	return mu.Unlock
}

// lockAllWrites is lockWrite for keyspace-wide writes (FLUSHALL): every
// stripe's write order is pinned around the flush-and-log pair, so no
// racing ZADD can apply to a pre-flush index and log after the OpFlushAll
// record (which would resurrect on recovery a key the live server lost).
func (s *Server) lockAllWrites() func() {
	if s.writeMus == nil {
		return nil
	}
	for i := range s.writeMus {
		s.writeMus[i].Lock()
	}
	return func() {
		for i := range s.writeMus {
			s.writeMus[i].Unlock()
		}
	}
}

// Persistent reports whether the server has a data directory attached.
func (s *Server) Persistent() bool { return s.wal != nil }

// logWrite appends one record for an applied write and drives the
// automatic log rewrite, returning the record's LSN — the offset a
// later WAIT on the same connection targets. A nil WAL (memory-only
// server) is a no-op returning 0; the set name is converted only when
// there is a record to write.
func (s *Server) logWrite(op persist.Op, set []byte, key []byte, val uint64) (uint64, error) {
	if s.wal == nil {
		return 0, nil
	}
	lsn, err := s.wal.Append(op, string(set), key, val)
	if err != nil {
		return 0, err
	}
	if s.rewriteAt > 0 && s.wal.AppendedBytes()-s.savedBytes.Load() >= s.rewriteAt {
		// Automatic log rewrite: the WAL tail past the last snapshot has
		// grown beyond the replay-cost budget, so compact it into a snapshot
		// (BGSave ends with RemoveObsolete, which drops the covered
		// segments). BGSave's one-at-a-time CAS dedupes the burst of writes
		// that all see the budget exceeded before the cut resets the
		// watermark.
		s.BGSave()
	}
	return lsn, nil
}

// Save cuts a snapshot in the foreground: the keyspace's set list is
// captured under the all-stripe lock at the WAL's current LSN, every set
// is serialized through its cursor into snap-<lsn>.snap (temp file +
// rename, so a crash mid-save never damages the previous snapshot), the
// MANIFEST is repointed, and WAL segments the snapshot fully covers are
// removed. Writers are only blocked for the stripe acquisition — cursor
// draining runs against the live (concurrent-safe) engines.
func (s *Server) Save() error { return s.save(false) }

// save implements Save; quiesced says the calling goroutine already holds
// this server's quiesce lock (a SAVE command dispatched under serial
// mode's cmdMu).
func (s *Server) save(quiesced bool) error {
	if s.wal == nil {
		return ErrNoPersistence
	}
	if s.quiesceSaves && !quiesced {
		// A non-concurrent-safe engine cannot be iterated while writers
		// mutate it: quiesce execution for the duration (Redis without
		// fork(2) semantics). Concurrent-safe engines skip this. The
		// quiesce lock is always taken before saveMu.
		release := s.quiesce()
		defer release()
	}
	_, _, err := s.cutSnapshot()
	return err
}

// cutSnapshot writes one snapshot and returns its LSN and file path; it
// serializes against concurrent cuts via saveMu. Callers handle the
// quiesce-vs-cmdMu question (see save and snapshotForSync).
func (s *Server) cutSnapshot() (uint64, string, error) {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	// The LSN is captured BEFORE the cursors: every record ≤ lsn was
	// applied before this point (writes log after they apply), so the
	// cursors see it; records > lsn replay idempotently on top whether or
	// not the cursors caught them.
	lsn := s.wal.LSN()
	// Reset the auto-rewrite budget at the same point the snapshot LSN is
	// captured: bytes logged at or below lsn are about to be covered.
	s.savedBytes.Store(s.wal.AppendedBytes())
	sets := s.ks.snapshotSets()
	path, err := persist.WriteSnapshot(s.dataDir, lsn, sets)
	if err != nil {
		return 0, "", err
	}
	return lsn, path, persist.RemoveObsolete(s.dataDir, lsn)
}

// snapshotForSync cuts the fresh snapshot a replica's full sync streams
// (the repl.Manager's CutSnapshot hook). Always fresh, never a cached
// file: bulk preloads bypass the WAL, so only a snapshot cut now is
// guaranteed to contain them.
func (s *Server) snapshotForSync() (uint64, string, error) {
	if s.quiesceSaves {
		release := s.quiesce()
		defer release()
	}
	return s.cutSnapshot()
}

// BGSave starts Save on a background goroutine, at most one at a time.
// It reports whether a new save was started; a failure is retrievable via
// LastBGSaveError. Close waits for an in-flight background save.
func (s *Server) BGSave() bool {
	if s.wal == nil || !s.saving.CompareAndSwap(false, true) {
		return false
	}
	s.bgWg.Add(1)
	go func() {
		defer s.bgWg.Done()
		defer s.saving.Store(false)
		err := s.save(false)
		s.saveMu.Lock()
		s.bgSaveErr = err
		s.saveMu.Unlock()
	}()
	return true
}

// LastBGSaveError returns the most recent background save's error (nil
// after a success).
func (s *Server) LastBGSaveError() error {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	return s.bgSaveErr
}

// Preload bulk-loads keys[i] → vals[i] into the named sorted set through
// the engine's bulk-load path (index.BulkLoad) — the partitioned
// concurrent ingest for sharded engines — creating the set, sized for
// len(keys), if needed. It is meant for warming a server before
// benchmarking, off the RESP path.
func (s *Server) Preload(set string, keys [][]byte, vals []uint64) (int, error) {
	if s.isReplica() {
		return 0, errors.New("miniredis: cannot preload a replica (its keyspace mirrors the primary)")
	}
	// The read lock fences replication: a PSYNC handshake write-locks
	// bulkMu before cutting its full-sync snapshot, so a replica that
	// connects mid-load waits for the load to finish instead of streaming a
	// half-loaded keyspace.
	s.bulkMu.RLock()
	defer s.bulkMu.RUnlock()
	ix := s.ks.get([]byte(set), func() index.Index { return s.newSet(len(keys)) })
	n, err := index.BulkLoad(ix, keys, vals)
	if err == nil && s.repl != nil {
		// Preloaded keys bypass the WAL, so no replica state from before
		// this point can catch up through the log alone: fence partial
		// syncs below the current LSN and kick connected replicas into
		// fresh full syncs.
		s.repl.InvalidatePartialBelow(s.wal.LSN())
	}
	return n, err
}

// Listen starts accepting on addr ("127.0.0.1:0" picks a free port) and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Close stops the server, waits for connections and any background save
// to drain, and cleanly closes the WAL. The returned error is the WAL
// close's: that close is the log's final flush+fsync, so discarding it
// would silently un-durable the tail of acknowledged writes (caught by
// ctvet's durabilityerr when this method returned nothing).
func (s *Server) Close() error {
	if s.ln != nil {
		s.ln.Close()
	}
	if s.repl != nil {
		// Kick replica connections first: their serve goroutines are
		// blocked in the feed and must return before wg drains.
		s.repl.Close()
	}
	s.detachReplica(true)
	s.wg.Wait()
	s.bgWg.Wait()
	if s.wal != nil {
		return s.wal.Close()
	}
	return nil
}

// SetMaxConns caps simultaneous client connections (0 = unlimited).
// Connections accepted over the cap get "-ERR max number of clients
// reached" and are closed; INFO clients counts the rejections. Must be
// called before Listen.
func (s *Server) SetMaxConns(n int) { s.maxConns = n }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if s.maxConns > 0 && s.conns.Load() >= int64(s.maxConns) {
			// Redis's over-maxclients behavior: a best-effort error reply,
			// then hang up. The write error is moot — the connection is
			// being refused either way.
			s.rejected.Add(1)
			conn.Write([]byte("-ERR max number of clients reached\r\n"))
			conn.Close()
			continue
		}
		s.conns.Add(1)
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *Server) set(name []byte) index.Index {
	return s.ks.get(name, s.create)
}

// Client is a minimal pipelining RESP client for the benchmarks.
type Client struct {
	conn net.Conn
	r    *resp.Reader
	w    *resp.Writer
	err  error // sticky: set once the connection state is unknown
}

// Dial connects to a mini-Redis server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: resp.NewReader(conn), w: resp.NewWriter(conn)}, nil
}

// Close closes the connection.
func (c *Client) Close() { c.conn.Close() }

// Do sends one command and reads its reply.
func (c *Client) Do(args ...[]byte) (interface{}, error) {
	if c.err != nil {
		return nil, c.err
	}
	if err := c.w.WriteCommand(args...); err != nil {
		return nil, c.poison(err)
	}
	if err := c.w.Flush(); err != nil {
		return nil, c.poison(err)
	}
	v, err := c.r.ReadReply()
	if err != nil {
		if resp.FrameSafe(err) {
			return nil, err // bad value, but the stream is still in sync
		}
		return nil, c.poison(err)
	}
	return v, nil
}

// Pipeline sends a batch of commands and reads all replies. If one reply
// carries a malformed value but its frame was fully consumed
// (resp.FrameSafe), the remaining replies are still drained so the
// connection stays in sync for subsequent calls; if the transport or the
// reply framing itself fails mid-pipeline, the client is poisoned — every
// later call fails fast instead of reading a reply that belongs to an
// earlier command.
func (c *Client) Pipeline(cmds [][][]byte) ([]interface{}, error) {
	if c.err != nil {
		return nil, c.err
	}
	for _, cmd := range cmds {
		if err := c.w.WriteCommand(cmd...); err != nil {
			return nil, c.poison(err)
		}
	}
	if err := c.w.Flush(); err != nil {
		return nil, c.poison(err)
	}
	out := make([]interface{}, 0, len(cmds))
	var firstErr error
	for range cmds {
		v, err := c.r.ReadReply()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			if resp.FrameSafe(err) {
				continue // drain the replies still owed to this pipeline
			}
			// The reply framing is gone, not just one value: the stream
			// position is unknown, so draining would misread replies.
			c.poison(err)
			break
		}
		if firstErr == nil {
			out = append(out, v)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// poison records the first connection-desynchronizing error and returns it.
func (c *Client) poison(err error) error {
	if c.err == nil {
		c.err = fmt.Errorf("miniredis: connection desynchronized: %w", err)
	}
	return c.err
}
