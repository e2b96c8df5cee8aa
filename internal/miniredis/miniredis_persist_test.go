package miniredis

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	cuckootrie "repro"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/sharded"
	"repro/internal/skiplist"
)

// newPersistentServer starts a serial server over the given factory with
// persistence attached to dir.
func newPersistentServer(t *testing.T, dir string, factory EngineFactory, snapEvery int) (*Server, *Client, *persist.Result) {
	t.Helper()
	srv := NewServerExec(factory, 256, ExecSerial)
	res, err := srv.EnablePersistence(dir, PersistOptions{Policy: persist.FsyncNo, SnapshotEvery: snapEvery})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return srv, cl, res
}

func skiplistFactory(c int) index.Index { return skiplist.New(1) }

func trieFactory(c int) index.Index {
	return cuckootrie.New(cuckootrie.Config{CapacityHint: c, AutoResize: true})
}

// TestPersistenceRestartCycle is the server-level durability loop: writes,
// deletes and a FLUSHALL all survive a close-and-reopen, across multiple
// named sets, with only the WAL (no explicit SAVE).
func TestPersistenceRestartCycle(t *testing.T) {
	dir := t.TempDir()
	srv, cl, res := newPersistentServer(t, dir, skiplistFactory, 0)
	if res.Keys() != 0 {
		t.Fatalf("fresh dir recovered %d keys", res.Keys())
	}
	mustDo := func(args ...string) interface{} {
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
	mustDo("ZADD", "stale", "gone", "1")
	mustDo("FLUSHALL")
	for i := 0; i < 40; i++ {
		mustDo("ZADD", fmt.Sprintf("set%d", i%4), fmt.Sprintf("m%03d", i), fmt.Sprint(i))
	}
	mustDo("ZREM", "set1", "m001")
	mustDo("ZADD", "set2", "m002", "999") // update, not a new member
	cl.Close()
	srv.Close()

	srv2, cl2, res2 := newPersistentServer(t, dir, skiplistFactory, 0)
	defer srv2.Close()
	defer cl2.Close()
	if res2.Keys() != 39 {
		t.Fatalf("recovered %d keys, want 39", res2.Keys())
	}
	if r, _ := cl2.Do([]byte("DBSIZE")); r != int64(39) {
		t.Fatalf("DBSIZE after restart = %v", r)
	}
	if r, _ := cl2.Do([]byte("ZSCORE"), []byte("set2"), []byte("m002")); string(r.([]byte)) != "999" {
		t.Fatalf("updated member = %v", r)
	}
	if r, _ := cl2.Do([]byte("ZSCORE"), []byte("set1"), []byte("m001")); r.([]byte) != nil {
		t.Fatalf("removed member resurrected: %v", r)
	}
	if r, _ := cl2.Do([]byte("ZSCORE"), []byte("stale"), []byte("gone")); r.([]byte) != nil {
		t.Fatalf("flushed member resurrected: %v", r)
	}
	// And the write path still works on the recovered keyspace.
	if r, _ := cl2.Do([]byte("ZADD"), []byte("set0"), []byte("fresh"), []byte("1")); r != int64(1) {
		t.Fatalf("post-recovery ZADD = %v", r)
	}
}

// TestSaveCommandCompacts: SAVE cuts a snapshot, compacts fully-covered
// WAL segments, and a restart recovers from the snapshot without
// replaying history.
func TestSaveCommandCompacts(t *testing.T) {
	dir := t.TempDir()
	srv, cl, _ := newPersistentServer(t, dir, skiplistFactory, 0)
	for i := 0; i < 30; i++ {
		if _, err := cl.Do([]byte("ZADD"), []byte("s"), []byte(fmt.Sprintf("m%03d", i)), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	if r, err := cl.Do([]byte("SAVE")); err != nil || r != "OK" {
		t.Fatalf("SAVE = %v, %v", r, err)
	}
	snaps := 0
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".snap") {
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("%d snapshots after SAVE", snaps)
	}
	cl.Close()
	srv.Close()

	srv2, cl2, res := newPersistentServer(t, dir, skiplistFactory, 0)
	defer srv2.Close()
	defer cl2.Close()
	if res.SnapshotKeys != 30 || res.Replayed != 0 {
		t.Fatalf("recovery = %d snapshot keys + %d replayed, want 30 + 0", res.SnapshotKeys, res.Replayed)
	}
}

// TestSaveWithoutPersistence: SAVE/BGSAVE on a memory-only server reply
// with an error instead of pretending durability.
func TestSaveWithoutPersistence(t *testing.T) {
	_, cl := newTestServer(t)
	if r, err := cl.Do([]byte("SAVE")); err != nil || !strings.Contains(fmt.Sprint(r), "not enabled") {
		t.Fatalf("SAVE on memory-only server = %v, %v", r, err)
	}
	if r, err := cl.Do([]byte("BGSAVE")); err != nil || !strings.Contains(fmt.Sprint(r), "not enabled") {
		t.Fatalf("BGSAVE on memory-only server = %v, %v", r, err)
	}
}

// waitBGSave waits for an in-flight background save to finish.
func waitBGSave(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.saving.Load() {
		if time.Now().After(deadline) {
			t.Fatal("background save did not finish")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAutoSnapshotEvery: the -snapshot-every cadence triggers background
// saves from the write path.
func TestAutoSnapshotEvery(t *testing.T) {
	dir := t.TempDir()
	srv, cl, _ := newPersistentServer(t, dir, skiplistFactory, 10)
	defer srv.Close()
	defer cl.Close()
	for i := 0; i < 25; i++ {
		if _, err := cl.Do([]byte("ZADD"), []byte("s"), []byte(fmt.Sprintf("m%03d", i)), []byte("1")); err != nil {
			t.Fatal(err)
		}
	}
	waitBGSave(t, srv)
	if err := srv.LastBGSaveError(); err != nil {
		t.Fatalf("background save failed: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".snap") {
			found = true
		}
	}
	if !found {
		t.Fatal("no snapshot after crossing the auto-save threshold")
	}
}

// TestPreloadThenSaveDurable: the documented preload flow — bulk load off
// the RESP path, then one Save — survives a restart.
func TestPreloadThenSaveDurable(t *testing.T) {
	dir := t.TempDir()
	srv, cl, _ := newPersistentServer(t, dir, skiplistFactory, 0)
	keys := make([][]byte, 500)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%05d", i))
		vals[i] = uint64(i)
	}
	if added, err := srv.Preload("bench", keys, vals); err != nil || added != 500 {
		t.Fatalf("Preload = %d, %v", added, err)
	}
	if err := srv.Save(); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	srv.Close()
	srv2, cl2, res := newPersistentServer(t, dir, skiplistFactory, 0)
	defer srv2.Close()
	defer cl2.Close()
	if res.SnapshotKeys != 500 {
		t.Fatalf("recovered %d preloaded keys", res.SnapshotKeys)
	}
}

// TestShardedSampledServerRecovery: a server whose sets are 4-shard
// sampled-routed engines recovers through the partitioned bulk load; the
// untrained router of each recovered set trains from its snapshot stream.
func TestShardedSampledServerRecovery(t *testing.T) {
	dir := t.TempDir()
	factory := ShardedFactoryWithRouter(trieFactory, 4, sharded.NewSampledRouter)
	srv, cl, _ := newPersistentServer(t, dir, factory, 0)
	for i := 0; i < 400; i++ {
		if _, err := cl.Do([]byte("ZADD"), []byte("s"), []byte(fmt.Sprintf("m%05d", i)), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Do([]byte("SAVE")); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	srv.Close()

	srv2, cl2, res := newPersistentServer(t, dir, factory, 0)
	defer srv2.Close()
	defer cl2.Close()
	if res.Keys() != 400 {
		t.Fatalf("recovered %d keys", res.Keys())
	}
	sx, ok := res.Sets["s"].(*sharded.Index)
	if !ok {
		t.Fatalf("recovered set is %T", res.Sets["s"])
	}
	sr := sx.Router().(*sharded.SampledRouter)
	if !sr.Trained() {
		t.Fatal("sampled router not trained from the snapshot stream")
	}
	spread := 0
	for _, l := range sx.ShardLens() {
		if l > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("snapshot-trained boundaries left shard lens %v", sx.ShardLens())
	}
	if r, _ := cl2.Do([]byte("ZSCORE"), []byte("s"), []byte("m00123")); string(r.([]byte)) != "123" {
		t.Fatalf("recovered member = %v", r)
	}
}

// TestConcurrentSameKeyWALOrder: on a persistent striped-conn
// server, racing writes to the same key must reach the WAL in the order
// they applied — the per-stripe write ordering lock — so the state replay
// rebuilds equals the state the live server last served. Without the
// ordering lock, a writer can apply first but log second, and recovery
// resurrects the overwritten value.
func TestConcurrentSameKeyWALOrder(t *testing.T) {
	dir := t.TempDir()
	srv := NewServerExec(trieFactory, 256, ExecStripedConn)
	if _, err := srv.EnablePersistence(dir, PersistOptions{Policy: persist.FsyncNo}); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < perWriter; i++ {
				v := fmt.Sprint(g*perWriter + i)
				if _, err := c.Do([]byte("ZADD"), []byte("hot"), []byte("k"), []byte(v)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cl.Do([]byte("ZSCORE"), []byte("hot"), []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	liveFinal := string(r.([]byte))
	cl.Close()
	srv.Close()

	res, err := persist.Recover(dir, func(set string, hint int) index.Index { return trieFactory(max(hint, 16)) })
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Sets["hot"].Get([]byte("k"))
	if !ok {
		t.Fatal("hot key missing after recovery")
	}
	if got := fmt.Sprint(v); got != liveFinal {
		t.Fatalf("replayed final value %s, live server served %s (WAL order diverged from apply order)", got, liveFinal)
	}
}

// TestFlushAllDBSizeBGSaveRace is the regression for the keyspace-wide
// consistency fix: FLUSHALL, DBSIZE and BGSAVE race freely (run under
// -race in CI), and because each takes ALL stripes before acting, DBSIZE
// must always observe the flush entirely or not at all — with 64
// one-member sets spread across the stripes, any value other than 0 or 64
// means a half-flushed set list leaked.
func TestFlushAllDBSizeBGSaveRace(t *testing.T) {
	dir := t.TempDir()
	// ExecStripedConn: commands run concurrently (the engine is
	// concurrent-safe), so nothing but the stripe locks orders FLUSHALL
	// against DBSIZE and the BGSAVE set-list capture.
	srv := NewServerExec(trieFactory, 256, ExecStripedConn)
	if _, err := srv.EnablePersistence(dir, PersistOptions{Policy: persist.FsyncNo}); err != nil {
		t.Fatal(err)
	}
	laddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(laddr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer cl.Close()
	const nsets = 64
	refill := func(c *Client) {
		t.Helper()
		for i := 0; i < nsets; i++ {
			if _, err := c.Do([]byte("ZADD"), []byte(fmt.Sprintf("set%03d", i)), []byte("m"), []byte("1")); err != nil {
				t.Error(err)
				return
			}
		}
	}
	addr := cl.conn.RemoteAddr().String()
	for round := 0; round < 4; round++ {
		refill(cl)
		var wg sync.WaitGroup
		// One flusher, one background saver, two DBSIZE readers.
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			time.Sleep(time.Duration(round) * 500 * time.Microsecond)
			if _, err := c.Do([]byte("FLUSHALL")); err != nil {
				t.Error(err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.BGSave()
		}()
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := Dial(addr)
				if err != nil {
					t.Error(err)
					return
				}
				defer c.Close()
				for i := 0; i < 40; i++ {
					r, err := c.Do([]byte("DBSIZE"))
					if err != nil {
						t.Error(err)
						return
					}
					if n := r.(int64); n != 0 && n != nsets {
						t.Errorf("DBSIZE saw a half-flushed keyspace: %d", n)
						return
					}
				}
			}()
		}
		wg.Wait()
		waitBGSave(t, srv)
		if err := srv.LastBGSaveError(); err != nil {
			t.Fatalf("round %d: background save failed: %v", round, err)
		}
	}
	// The directory must still recover cleanly after all that churn.
	refill(cl)
	if _, err := cl.Do([]byte("SAVE")); err != nil {
		t.Fatal(err)
	}
	res, err := persist.Recover(dir, func(set string, hint int) index.Index { return trieFactory(max(hint, 16)) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Keys() != nsets {
		t.Fatalf("recovered %d keys, want %d", res.Keys(), nsets)
	}
}
