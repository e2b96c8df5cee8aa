package miniredis

import (
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/persist"
)

// newServerWithPersist is newPersistentServer with full PersistOptions
// control, for the group-commit and auto-rewrite tests.
func newServerWithPersist(t *testing.T, dir string, mode ExecMode, opts PersistOptions) (*Server, *Client) {
	t.Helper()
	factory := skiplistFactory
	if mode == ExecStripedConn {
		factory = trieFactory // striped-conn is honored only over a concurrent-safe engine
	}
	srv := NewServerExec(factory, 256, mode)
	if _, err := srv.EnablePersistence(dir, opts); err != nil {
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
	return srv, cl
}

// durableSpellings are the -fsync spellings whose acks wait: "always" and
// "group", its second spelling.
var durableSpellings = []string{"always", "group"}

// parsePolicy parses an -fsync spelling, failing the test on error.
func parsePolicy(t *testing.T, spelling string) persist.FsyncPolicy {
	t.Helper()
	pol, err := persist.ParseFsyncPolicy(spelling)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// TestGroupCommitPipelineAck: a pipelined batch of writes under
// FsyncAlways, the policy whose acks wait, under either of its spellings,
// is acknowledged only after the
// WAL's durable watermark covers its last LSN — the whole pipeline rides
// one (or few) fsyncs, and by the time the client sees the replies the
// records are on stable storage.
func TestGroupCommitPipelineAck(t *testing.T) {
	for _, mode := range []ExecMode{ExecSerial, ExecStripedConn} {
		t.Run(fmt.Sprintf("serial=%v", mode == ExecSerial), func(t *testing.T) {
			for _, spelling := range durableSpellings {
				t.Run(spelling, func(t *testing.T) {
					srv, cl := newServerWithPersist(t, t.TempDir(), mode, PersistOptions{Policy: parsePolicy(t, spelling)})
					defer srv.Close()
					defer cl.Close()
					const n = 64
					cmds := make([][][]byte, n)
					for i := 0; i < n; i++ {
						cmds[i] = [][]byte{[]byte("ZADD"), []byte("s"), []byte(fmt.Sprintf("m%03d", i)), []byte("1")}
					}
					out, err := cl.Pipeline(cmds)
					if err != nil || len(out) != n {
						t.Fatalf("pipeline: %d replies, %v", len(out), err)
					}
					// Replies reached the client, so the ack barrier has run:
					// every logged record must already be durable.
					if last, durable := srv.wal.LSN(), srv.wal.DurableLSN(); durable < last {
						t.Fatalf("acked with DurableLSN=%d behind LSN=%d", durable, last)
					}
				})
			}
		})
	}
}

// TestDurableAckWithholdsOverflow: under FsyncAlways, spelled either way,
// no reply byte of a batch leaves before the batch's Commit — not even when a large reply
// overflows the connection's write buffer behind a write's ack, and not for
// writes queued ahead of a PSYNC.
func TestDurableAckWithholdsOverflow(t *testing.T) {
	for _, spelling := range durableSpellings {
		for _, tail := range []string{"ZRANGEBYLEX s m 4000", "PSYNC 0"} {
			t.Run(spelling+"/"+strings.Fields(tail)[0], func(t *testing.T) {
				testDurableAckWithholdsOverflow(t, parsePolicy(t, spelling), tail)
			})
		}
	}
}

func testDurableAckWithholdsOverflow(t *testing.T, pol persist.FsyncPolicy, tail string) {
	dir := t.TempDir()
	srv := NewServerExec(skiplistFactory, 256, ExecSerial)
	if _, err := srv.EnablePersistence(dir, PersistOptions{Policy: pol}); err != nil {
		t.Fatal(err)
	}
	// Reopen the WAL behind a gate that holds every fsync while armed.
	if err := srv.wal.Close(); err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	entered, open := make(chan struct{}, 1), make(chan struct{})
	wal, err := persist.OpenWAL(dir, persist.WALOptions{Policy: pol, FsyncFn: func(f *os.File) error {
		if armed.Load() {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-open
		}
		return f.Sync()
	}})
	if err != nil {
		t.Fatal(err)
	}
	srv.wal = wal
	wal.SetOnAppend(srv.repl.Publish)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(open) // runs before srv.Close: the syncer must not stay gated
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// 4000 members of a dozen bytes: a ZRANGEBYLEX over them replies with
	// about 60 KiB, past the 16 KiB write buffer.
	const n = 4000
	cmds := make([][][]byte, n)
	for i := range cmds {
		cmds[i] = [][]byte{[]byte("ZADD"), []byte("s"), []byte(fmt.Sprintf("m%06d", i)), []byte("1")}
	}
	if _, err := cl.Pipeline(cmds); err != nil {
		t.Fatal(err)
	}

	armed.Store(true)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("ZADD s new 1\r\n" + tail + "\r\n")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the ZADD's fsync never started")
	}
	conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	var b [1]byte
	if k, err := conn.Read(b[:]); k > 0 || !isTimeout(err) {
		t.Fatalf("read %d bytes (%v) while the ZADD's fsync was held", k, err)
	}
	armed.Store(false)
	open <- struct{}{} // release the held fsync; the deferred close opens the gate for good
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if k, err := conn.Read(b[:]); k != 1 || b[0] != ':' {
		t.Fatalf("first reply byte after the fsync = %q (%d, %v), want the ZADD's ':'", b[0], k, err)
	}
}

func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// TestGroupCommitConcurrentWriters: ≥8 connections writing pipelines in
// parallel against a group-commit server — the coalescing path under real
// contention — and every acknowledged write survives a clean restart.
func TestGroupCommitConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	srv, cl := newServerWithPersist(t, dir, ExecSerial, PersistOptions{Policy: persist.FsyncAlways})
	cl.Close()
	addr := srv.ln.Addr().String()
	const writers, perWriter = 8, 30
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs[g] = err
				return
			}
			defer c.Close()
			cmds := make([][][]byte, perWriter)
			for i := range cmds {
				cmds[i] = [][]byte{[]byte("ZADD"), []byte("s"), []byte(fmt.Sprintf("w%dm%03d", g, i)), []byte("1")}
			}
			_, errs[g] = c.Pipeline(cmds)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", g, err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, cl2, res := newPersistentServer(t, dir, skiplistFactory)
	defer srv2.Close()
	defer cl2.Close()
	if res.Keys() != writers*perWriter {
		t.Fatalf("recovered %d keys, want %d", res.Keys(), writers*perWriter)
	}
}

// TestAsyncAckDurability: FsyncEverySec replies before the fsync, and INFO
// persistence exposes the ack-vs-durable gap; the watermark catches up to
// the last LSN within about one 1 s tick without any explicit sync.
func TestAsyncAckDurability(t *testing.T) {
	dir := t.TempDir()
	srv, cl := newServerWithPersist(t, dir, ExecSerial, PersistOptions{Policy: persist.FsyncEverySec})
	defer srv.Close()
	defer cl.Close()
	for i := 0; i < 50; i++ {
		if r, err := cl.Do([]byte("ZADD"), []byte("s"), []byte(fmt.Sprintf("m%03d", i)), []byte("1")); err != nil || r != int64(1) {
			t.Fatalf("ZADD %d: %v %v", i, r, err)
		}
	}
	last := srv.wal.LSN()
	deadline := time.Now().Add(5 * time.Second)
	for srv.wal.DurableLSN() < last {
		if time.Now().After(deadline) {
			t.Fatalf("async watermark stuck at %d, want ≥ %d", srv.wal.DurableLSN(), last)
		}
		time.Sleep(time.Millisecond)
	}
	r, err := cl.Do([]byte("INFO"), []byte("persistence"))
	if err != nil {
		t.Fatal(err)
	}
	info := string(r.([]byte))
	for _, want := range []string{"# Persistence", "appendfsync:everysec", "aof_enabled:1",
		fmt.Sprintf("aof_last_lsn:%d", last), fmt.Sprintf("aof_durable_lsn:%d", last)} {
		if !strings.Contains(info, want) {
			t.Fatalf("INFO persistence missing %q:\n%s", want, info)
		}
	}
	// WAIT 0 doubles as an everysec client's explicit local-durability
	// barrier: it drives wal.Commit for the connection's last write.
	if r, err := cl.Do([]byte("WAIT"), []byte("0"), []byte("10")); err != nil || r != int64(0) {
		t.Fatalf("WAIT = %v, %v", r, err)
	}
}

// TestAutoRewrite: once the WAL tail since the last snapshot exceeds the
// byte budget, the server snapshots and compacts on its own — no explicit
// SAVE. The skiplist case runs serial over a non-concurrent engine, so the
// background save fired from the write path must quiesce execution; the
// CuckooTrie case saves against live striped-conn writers.
func TestAutoRewrite(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode ExecMode
	}{{"skiplist", ExecSerial}, {"CuckooTrie", ExecStripedConn}} {
		t.Run(tc.name, func(t *testing.T) { testAutoRewrite(t, tc.mode) })
	}
}

func testAutoRewrite(t *testing.T, mode ExecMode) {
	dir := t.TempDir()
	srv, cl := newServerWithPersist(t, dir, mode, PersistOptions{
		Policy:           persist.FsyncNo,
		AutoRewriteBytes: 2 << 10,
	})
	defer srv.Close()
	defer cl.Close()
	if srv.quiesceSaves != (mode == ExecSerial) {
		t.Fatalf("quiesceSaves = %v under %s", srv.quiesceSaves, mode)
	}
	for i := 0; i < 400; i++ {
		if _, err := cl.Do([]byte("ZADD"), []byte("s"), []byte(fmt.Sprintf("member%05d", i)), []byte("1")); err != nil {
			t.Fatal(err)
		}
	}
	// ~30 bytes/record × 400 writes ≈ 12KiB appended against a 2KiB budget:
	// at least one background rewrite must have fired and cut a snapshot.
	countSnaps := func() int {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), "snap-") && strings.HasSuffix(e.Name(), ".snap") {
				n++
			}
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	for countSnaps() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto-rewrite never cut a snapshot despite blowing the byte budget")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.bgWg.Wait()
	if err := srv.LastBGSaveError(); err != nil {
		t.Fatalf("auto-rewrite save failed: %v", err)
	}
	// The rewrite must not have cost any data.
	if r, _ := cl.Do([]byte("DBSIZE")); r != int64(400) {
		t.Fatalf("DBSIZE after rewrite = %v", r)
	}
}
