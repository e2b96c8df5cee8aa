package miniredis

import (
	"bufio"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/repl"
	"repro/internal/sharded"
)

// newReplicaServer starts a memory-only server and attaches it to the
// primary at addr as a read replica.
func newReplicaServer(t *testing.T, addr string, factory EngineFactory, mode ExecMode) (*Server, *repl.Replica) {
	t.Helper()
	srv := NewServerExec(factory, 256, mode)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.ReplicaOf(addr, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return srv, sess
}

// mustDo runs one command through cl and fails the test on a transport
// error (an -ERR reply comes back as an error value, not a failure).
func mustDo(t *testing.T, cl *Client, args ...string) interface{} {
	t.Helper()
	bs := make([][]byte, len(args))
	for i, a := range args {
		bs[i] = []byte(a)
	}
	r, err := cl.Do(bs...)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return r
}

// dumpKeyspace captures a server's full state — every set, every member —
// for element-for-element equivalence checks. Empty sets appear with empty
// member maps, so a replica that resurrected or dropped a whole set fails
// the comparison even when the total key count matches.
func dumpKeyspace(s *Server) map[string]map[string]uint64 {
	out := map[string]map[string]uint64{}
	s.ks.rlockAll()
	defer s.ks.runlockAll()
	for i := range s.ks.stripes {
		for name, ix := range s.ks.stripes[i].sets {
			m := map[string]uint64{}
			ix.Scan(nil, ix.Len(), func(k []byte, v uint64) bool {
				m[string(k)] = v
				return true
			})
			out[name] = m
		}
	}
	return out
}

// waitUntil polls cond up to the deadline.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestReplicationConvergence is the acceptance path: a replica attaches to
// a live primary (full sync), then follows streamed writes, updates,
// deletes and a FLUSHALL; after WAIT 1 confirms the replica acked, the two
// keyspaces must match element for element.
func TestReplicationConvergence(t *testing.T) {
	dir := t.TempDir()
	prim, cl, _ := newPersistentServer(t, dir, skiplistFactory, 0)
	defer prim.Close()
	defer cl.Close()

	// Pre-attach state: the replica must receive these via the full sync.
	for i := 0; i < 100; i++ {
		mustDo(t, cl, "ZADD", fmt.Sprintf("set%d", i%3), fmt.Sprintf("pre%04d", i), fmt.Sprint(i))
	}
	addr := prim.ln.Addr().String()
	rep, sess := newReplicaServer(t, addr, skiplistFactory, ExecSerial)
	defer rep.Close()
	waitUntil(t, 5*time.Second, "replica link", sess.LinkUp)

	// Streamed phase: writes, an update, deletes, a FLUSHALL mid-stream,
	// then a rebuild — the replica must track every transition.
	for i := 0; i < 100; i++ {
		mustDo(t, cl, "ZADD", "live", fmt.Sprintf("m%04d", i), fmt.Sprint(i))
	}
	mustDo(t, cl, "ZADD", "live", "m0000", "999")
	mustDo(t, cl, "ZREM", "live", "m0001")
	mustDo(t, cl, "ZREM", "set0", "pre0000")
	mustDo(t, cl, "FLUSHALL")
	for i := 0; i < 50; i++ {
		mustDo(t, cl, "ZADD", "after", fmt.Sprintf("a%04d", i), fmt.Sprint(i+1000))
	}
	mustDo(t, cl, "ZREM", "after", "a0007")
	if got := mustDo(t, cl, "WAIT", "1", "10000"); got.(int64) != 1 {
		t.Fatalf("WAIT 1 = %v", got)
	}

	want, got := dumpKeyspace(prim), dumpKeyspace(rep)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replica diverged:\nprimary: %v\nreplica: %v", want, got)
	}
	if st := sess.Stats(); st.FullSyncs != 1 {
		t.Fatalf("full syncs = %d, want 1 (stats %+v)", st.FullSyncs, st)
	}
}

// TestReplicationShardedSampled replicates into a 4-shard sampled-router
// engine on a striped-conn pair: the full-sync bulk load must
// train the replica's untrained routers exactly like crash recovery does.
func TestReplicationShardedSampled(t *testing.T) {
	dir := t.TempDir()
	factory := ShardedFactoryWithRouter(trieFactory, 4, sharded.NewSampledRouter)
	prim := NewServerExec(factory, 256, ExecStripedConn)
	if _, err := prim.EnablePersistence(dir, PersistOptions{Policy: persist.FsyncNo}); err != nil {
		t.Fatal(err)
	}
	addr, err := prim.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	keys := make([][]byte, 400)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("m%05d", i))
		vals[i] = uint64(i)
	}
	if added, err := prim.Preload("s", keys, vals); err != nil || added != 400 {
		t.Fatalf("Preload = %d, %v", added, err)
	}

	rep, sess := newReplicaServer(t, addr, factory, ExecStripedConn)
	defer rep.Close()
	waitUntil(t, 5*time.Second, "replica link", sess.LinkUp)
	waitUntil(t, 5*time.Second, "snapshot load", func() bool { return rep.ks.totalLen() == 400 })

	ix, ok := rep.ks.lookup([]byte("s"))
	if !ok {
		t.Fatal("replica missing set s")
	}
	sx, ok := ix.(*sharded.Index)
	if !ok {
		t.Fatalf("replica set is %T", ix)
	}
	if !sx.Router().(*sharded.SampledRouter).Trained() {
		t.Fatal("replica sampled router not trained by the sync bulk load")
	}
	raddr := rep.ln.Addr().String()
	rcl, err := Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()
	if r := mustDo(t, rcl, "ZSCORE", "s", "m00123"); string(r.([]byte)) != "123" {
		t.Fatalf("replica ZSCORE = %v", r)
	}
}

// TestReplicationResumeNoDup kicks a streaming replica mid-run and counts
// applied records exactly: after the reconnect resumes at the acked LSN,
// every write must have been applied once — no gap, no duplicate.
func TestReplicationResumeNoDup(t *testing.T) {
	dir := t.TempDir()
	prim, cl, _ := newPersistentServer(t, dir, skiplistFactory, 0)
	defer prim.Close()
	defer cl.Close()
	addr := prim.ln.Addr().String()
	rep, sess := newReplicaServer(t, addr, skiplistFactory, ExecSerial)
	defer rep.Close()
	waitUntil(t, 5*time.Second, "replica link", sess.LinkUp)

	for i := 0; i < 1000; i++ {
		mustDo(t, cl, "ZADD", "s", fmt.Sprintf("m%05d", i), fmt.Sprint(i))
	}
	if got := mustDo(t, cl, "WAIT", "1", "10000"); got.(int64) != 1 {
		t.Fatalf("WAIT = %v", got)
	}
	prim.ReplManager().DisconnectAll()
	for i := 1000; i < 2000; i++ {
		mustDo(t, cl, "ZADD", "s", fmt.Sprintf("m%05d", i), fmt.Sprint(i))
	}
	if got := mustDo(t, cl, "WAIT", "1", "10000"); got.(int64) != 1 {
		t.Fatalf("WAIT after reconnect = %v", got)
	}
	st := sess.Stats()
	if st.Records != 2000 {
		t.Fatalf("applied %d records, want exactly 2000 (stats %+v)", st.Records, st)
	}
	if st.PartialSyncs < 1 {
		t.Fatalf("reconnect did not partial-sync (stats %+v)", st)
	}
	if rep.ks.totalLen() != 2000 {
		t.Fatalf("replica holds %d keys", rep.ks.totalLen())
	}
}

// TestReplicationResumeAcrossSessions stops a replica session entirely,
// lets the primary advance, and re-attaches with the saved applied LSN:
// while the WAL still retains that LSN the new session must CONTINUE (no
// full sync), and the state must converge element for element.
func TestReplicationResumeAcrossSessions(t *testing.T) {
	dir := t.TempDir()
	prim, cl, _ := newPersistentServer(t, dir, skiplistFactory, 0)
	defer prim.Close()
	defer cl.Close()
	addr := prim.ln.Addr().String()
	rep, sess := newReplicaServer(t, addr, skiplistFactory, ExecSerial)
	defer rep.Close()
	waitUntil(t, 5*time.Second, "replica link", sess.LinkUp)

	for i := 0; i < 200; i++ {
		mustDo(t, cl, "ZADD", "s", fmt.Sprintf("m%05d", i), fmt.Sprint(i))
	}
	if got := mustDo(t, cl, "WAIT", "1", "10000"); got.(int64) != 1 {
		t.Fatalf("WAIT = %v", got)
	}
	rep.ReplicaOfNoOne()
	for i := 200; i < 400; i++ {
		mustDo(t, cl, "ZADD", "s", fmt.Sprintf("m%05d", i), fmt.Sprint(i))
	}
	// Re-attach to the same primary: ReplicaOf seeds ResumeFrom with the
	// stopped session's applied LSN, so the handshake offers a resumable
	// offset and the primary answers CONTINUE.
	sess2, err := rep.ReplicaOf(addr, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustDo(t, cl, "WAIT", "1", "10000"); got.(int64) != 1 {
		t.Fatalf("WAIT after re-attach = %v", got)
	}
	st := sess2.Stats()
	if st.FullSyncs != 0 || st.PartialSyncs != 1 {
		t.Fatalf("re-attach syncs = %+v, want exactly one partial", st)
	}
	if st.Records != 200 {
		t.Fatalf("re-attach applied %d records, want exactly 200", st.Records)
	}
	if !reflect.DeepEqual(dumpKeyspace(prim), dumpKeyspace(rep)) {
		t.Fatal("replica diverged after cross-session resume")
	}
}

// TestReplicationFallBehindFullSync re-attaches a replica whose LSN has
// been compacted out of the primary's WAL retention (tiny segments + a SAVE
// removed the segments it would need): the primary must answer with a fresh
// full sync — graceful degradation, not an error — and the state must still
// converge.
func TestReplicationFallBehindFullSync(t *testing.T) {
	dir := t.TempDir()
	prim := NewServerExec(skiplistFactory, 256, ExecSerial)
	if _, err := prim.EnablePersistence(dir, PersistOptions{
		Policy:       persist.FsyncNo,
		SegmentBytes: 256,
	}); err != nil {
		t.Fatal(err)
	}
	addr, err := prim.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rep, sess := newReplicaServer(t, addr, skiplistFactory, ExecSerial)
	defer rep.Close()
	waitUntil(t, 5*time.Second, "replica link", sess.LinkUp)
	for i := 0; i < 50; i++ {
		mustDo(t, cl, "ZADD", "s", fmt.Sprintf("m%05d", i), fmt.Sprint(i))
	}
	if got := mustDo(t, cl, "WAIT", "1", "10000"); got.(int64) != 1 {
		t.Fatalf("WAIT = %v", got)
	}
	rep.ReplicaOfNoOne()

	// Advance far past the detached replica's LSN and compact: SAVE removes
	// every fully-covered 256-byte segment, so LSN 50 is gone.
	for i := 50; i < 500; i++ {
		mustDo(t, cl, "ZADD", "s", fmt.Sprintf("m%05d", i), fmt.Sprint(i))
	}
	mustDo(t, cl, "SAVE")
	if oldest, ok := persist.OldestWALLSN(dir); !ok || oldest <= 51 {
		t.Fatalf("compaction did not advance retention (oldest=%d ok=%v)", oldest, ok)
	}

	sess2, err := rep.ReplicaOf(addr, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustDo(t, cl, "WAIT", "1", "10000"); got.(int64) != 1 {
		t.Fatalf("WAIT after fall-behind = %v", got)
	}
	st := sess2.Stats()
	if st.FullSyncs != 1 || st.PartialSyncs != 0 {
		t.Fatalf("fall-behind syncs = %+v, want exactly one full sync", st)
	}
	if !reflect.DeepEqual(dumpKeyspace(prim), dumpKeyspace(rep)) {
		t.Fatal("replica diverged after fall-behind full sync")
	}
}

// TestPSyncHandshakeRaw speaks the wire protocol by hand and asserts the
// primary's reply line for each regime: fresh replica → FULLSYNC, retained
// LSN → CONTINUE, future LSN → FULLSYNC, no offset → the arity error.
func TestPSyncHandshakeRaw(t *testing.T) {
	dir := t.TempDir()
	prim, cl, _ := newPersistentServer(t, dir, skiplistFactory, 0)
	defer prim.Close()
	defer cl.Close()
	for i := 0; i < 20; i++ {
		mustDo(t, cl, "ZADD", "s", fmt.Sprintf("m%02d", i), fmt.Sprint(i))
	}
	addr := prim.ln.Addr().String()

	send := func(req string) string {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprint(conn, req)
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			t.Fatalf("%q: %v", req, err)
		}
		return strings.TrimRight(line, "\r\n")
	}
	handshake := func(offer string) string {
		t.Helper()
		return send(fmt.Sprintf("*2\r\n$5\r\nPSYNC\r\n$%d\r\n%s\r\n", len(offer), offer))
	}

	if got := handshake("0"); !strings.HasPrefix(got, "+FULLSYNC 20 ") {
		t.Fatalf("PSYNC 0 → %q, want +FULLSYNC 20 <bytes>", got)
	}
	if got := handshake("10"); got != "+CONTINUE 10" {
		t.Fatalf("PSYNC 10 → %q, want +CONTINUE 10", got)
	}
	// An LSN from the future (e.g. a replica of a different primary) is not
	// resumable no matter what the WAL holds.
	if got := handshake("999"); !strings.HasPrefix(got, "+FULLSYNC ") {
		t.Fatalf("PSYNC 999 → %q, want +FULLSYNC", got)
	}
	if got := send("*1\r\n$5\r\npsync\r\n"); got != "-ERR wrong number of arguments for PSYNC" {
		t.Fatalf("PSYNC without an offset → %q, want the arity error", got)
	}
}

// gatedFactory wraps an engine factory so every Set blocks until the gate
// closes — a stand-in for a long bulk load in flight.
type gatedIndex struct {
	index.Index
	gate chan struct{}
}

func (g *gatedIndex) Set(k []byte, v uint64) (bool, error) {
	<-g.gate
	return g.Index.Set(k, v)
}

// MultiSet blocks too: index.BulkLoad's fallback feeds MultiSet, not Set.
func (g *gatedIndex) MultiSet(keys [][]byte, vals []uint64, errs []error) int {
	<-g.gate
	return g.Index.MultiSet(keys, vals, errs)
}

// TestPreloadGateHoldsPSync is the regression test for the preload race: a
// replica that connects while -preload style bulk loading is in flight must
// be held at the handshake until the load finishes, then receive a full
// sync containing every preloaded key — never a snapshot of a half-loaded
// keyspace.
func TestPreloadGateHoldsPSync(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	factory := func(c int) index.Index {
		return &gatedIndex{Index: skiplistFactory(c), gate: gate}
	}
	prim, cl, _ := newPersistentServer(t, dir, factory, 0)
	defer prim.Close()
	defer cl.Close()
	addr := prim.ln.Addr().String()

	keys := make([][]byte, 200)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%05d", i))
		vals[i] = uint64(i)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := prim.Preload("bench", keys, vals); err != nil {
			t.Error(err)
		}
	}()

	rep, sess := newReplicaServer(t, addr, skiplistFactory, ExecSerial)
	defer rep.Close()
	// The preload is parked on the gate, so the replica's PSYNC must be
	// parked on the bulk fence: no sync of any kind completes.
	time.Sleep(200 * time.Millisecond)
	if st := sess.Stats(); st.FullSyncs != 0 || st.PartialSyncs != 0 {
		t.Fatalf("replica synced against a half-loaded keyspace: %+v", st)
	}
	close(gate)
	wg.Wait()
	waitUntil(t, 5*time.Second, "post-preload full sync", func() bool {
		return sess.Stats().FullSyncs == 1 && rep.ks.totalLen() == 200
	})
	if !reflect.DeepEqual(dumpKeyspace(prim), dumpKeyspace(rep)) {
		t.Fatal("replica diverged after gated preload")
	}
}

// TestWaitSemantics covers WAIT's reply in each regime: no replicas (times
// out at 0), enough replicas (returns promptly), more than exist (times out
// reporting what acked).
func TestWaitSemantics(t *testing.T) {
	dir := t.TempDir()
	prim, cl, _ := newPersistentServer(t, dir, skiplistFactory, 0)
	defer prim.Close()
	defer cl.Close()

	mustDo(t, cl, "ZADD", "s", "m", "1")
	if got := mustDo(t, cl, "WAIT", "1", "100"); got.(int64) != 0 {
		t.Fatalf("WAIT with no replicas = %v, want 0", got)
	}
	addr := prim.ln.Addr().String()
	rep, sess := newReplicaServer(t, addr, skiplistFactory, ExecSerial)
	defer rep.Close()
	waitUntil(t, 5*time.Second, "replica link", sess.LinkUp)
	mustDo(t, cl, "ZADD", "s", "m2", "2")
	if got := mustDo(t, cl, "WAIT", "1", "10000"); got.(int64) != 1 {
		t.Fatalf("WAIT 1 = %v, want 1", got)
	}
	start := time.Now()
	if got := mustDo(t, cl, "WAIT", "2", "200"); got.(int64) != 1 {
		t.Fatalf("WAIT 2 with one replica = %v, want 1", got)
	}
	if time.Since(start) < 150*time.Millisecond {
		t.Fatal("WAIT 2 returned before its timeout")
	}
}

// TestInfoReplication checks both roles' INFO replication sections.
func TestInfoReplication(t *testing.T) {
	dir := t.TempDir()
	prim, cl, _ := newPersistentServer(t, dir, skiplistFactory, 0)
	defer prim.Close()
	defer cl.Close()

	info := func(c *Client) string {
		return string(mustDo(t, c, "INFO", "replication").([]byte))
	}
	if got := info(cl); !strings.Contains(got, "role:master") || !strings.Contains(got, "connected_slaves:0") {
		t.Fatalf("primary INFO before replicas:\n%s", got)
	}
	addr := prim.ln.Addr().String()
	rep, sess := newReplicaServer(t, addr, skiplistFactory, ExecSerial)
	defer rep.Close()
	waitUntil(t, 5*time.Second, "replica link", sess.LinkUp)
	mustDo(t, cl, "ZADD", "s", "m", "1")
	mustDo(t, cl, "WAIT", "1", "10000")

	got := info(cl)
	if !strings.Contains(got, "connected_slaves:1") || !strings.Contains(got, "slave0:ip=") {
		t.Fatalf("primary INFO with a replica:\n%s", got)
	}
	// The replica advertised its listening port, so the primary should name
	// it by that address, not the ephemeral outbound port.
	_, wantPort, _ := net.SplitHostPort(rep.ln.Addr().String())
	if !strings.Contains(got, "port="+wantPort+",") {
		t.Fatalf("primary INFO does not name the replica's listen port %s:\n%s", wantPort, got)
	}

	rcl, err := Dial(rep.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()
	rgot := info(rcl)
	if !strings.Contains(rgot, "role:slave") || !strings.Contains(rgot, "master_link_status:up") {
		t.Fatalf("replica INFO:\n%s", rgot)
	}
}

// TestReplicaRejectsWrites: every write command in the table answers
// -READONLY on a replica and leaves its keyspace alone; after REPLICAOF NO
// ONE the server accepts writes again.
func TestReplicaRejectsWrites(t *testing.T) {
	dir := t.TempDir()
	prim, cl, _ := newPersistentServer(t, dir, skiplistFactory, 0)
	defer prim.Close()
	defer cl.Close()
	mustDo(t, cl, "ZADD", "s", "a", "1")
	addr := prim.ln.Addr().String()
	rep, _ := newReplicaServer(t, addr, skiplistFactory, ExecSerial)
	defer rep.Close()
	waitUntil(t, 5*time.Second, "replica full sync", func() bool { return rep.ks.totalLen() == 1 })

	rcl, err := Dial(rep.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()
	writes := 0
	for _, sp := range cmdSpecs {
		if !sp.write {
			continue
		}
		writes++
		// Arguments that would change the keyspace were they applied:
		// ZREM s a removes the synced member, FLUSHALL everything.
		cmd := append([]string{strings.ToUpper(sp.name)}, "s", "a", "1")[:sp.min]
		r := mustDo(t, rcl, cmd...)
		if e, ok := r.(error); !ok || !strings.HasPrefix(e.Error(), "READONLY ") {
			t.Errorf("%v on replica = %#v, want a READONLY error", cmd, r)
		}
		if r := mustDo(t, rcl, "DBSIZE"); r != int64(1) {
			t.Fatalf("replica DBSIZE after %v = %v, want 1", cmd, r)
		}
	}
	if writes < 3 {
		t.Fatalf("only %d write specs; ZADD, ZREM and FLUSHALL are all writes", writes)
	}
	if r := mustDo(t, rcl, "REPLICAOF", "NO", "ONE"); r != "OK" {
		t.Fatalf("REPLICAOF NO ONE = %v", r)
	}
	waitUntil(t, 5*time.Second, "detach", func() bool { return !rep.isReplica() })
	if r := mustDo(t, rcl, "ZADD", "s", "m", "1"); r.(int64) != 1 {
		t.Fatalf("ZADD after detach = %v", r)
	}
}

// TestReplicaOfRejectsPersistent: a server with its own WAL cannot become a
// replica.
func TestReplicaOfRejectsPersistent(t *testing.T) {
	dir := t.TempDir()
	srv, cl, _ := newPersistentServer(t, dir, skiplistFactory, 0)
	defer srv.Close()
	defer cl.Close()
	if _, err := srv.ReplicaOf("127.0.0.1:1", 0); err == nil {
		t.Fatal("ReplicaOf on a persistent server succeeded")
	}
	r := mustDo(t, cl, "REPLICAOF", "127.0.0.1", "1")
	if _, ok := r.(error); !ok {
		t.Fatalf("REPLICAOF command on persistent server = %v, want error", r)
	}
}
