package miniredis

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	cuckootrie "repro"
	"repro/internal/index"
	"repro/internal/resp"
	"repro/internal/sharded"
	"repro/internal/skiplist"
)

func newTestServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv := NewServerExec(func(c int) index.Index { return skiplist.New(1) }, 64, ExecSerial)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close(); srv.Close() })
	return srv, cl
}

func TestPingAndBasicOps(t *testing.T) {
	_, cl := newTestServer(t)
	if r, err := cl.Do([]byte("PING")); err != nil || r != "PONG" {
		t.Fatalf("PING = %v, %v", r, err)
	}
	if r, _ := cl.Do([]byte("ZADD"), []byte("s"), []byte("alice"), []byte("7")); r != int64(1) {
		t.Fatalf("ZADD = %v", r)
	}
	// Redis semantics: updating an existing member's score replies 0.
	if r, _ := cl.Do([]byte("ZADD"), []byte("s"), []byte("alice"), []byte("9")); r != int64(0) {
		t.Fatalf("ZADD update = %v, want 0", r)
	}
	if r, _ := cl.Do([]byte("ZADD"), []byte("s"), []byte("alice"), []byte("7")); r != int64(0) {
		t.Fatalf("ZADD re-update = %v, want 0", r)
	}
	if r, _ := cl.Do([]byte("ZSCORE"), []byte("s"), []byte("alice")); string(r.([]byte)) != "7" {
		t.Fatalf("ZSCORE = %v", r)
	}
	if r, _ := cl.Do([]byte("ZSCORE"), []byte("s"), []byte("bob")); r.([]byte) != nil {
		t.Fatalf("ZSCORE absent = %v", r)
	}
	if r, _ := cl.Do([]byte("DBSIZE")); r != int64(1) {
		t.Fatalf("DBSIZE = %v", r)
	}
	if r, _ := cl.Do([]byte("ZREM"), []byte("s"), []byte("alice")); r != int64(1) {
		t.Fatalf("ZREM = %v", r)
	}
	if r, _ := cl.Do([]byte("DBSIZE")); r != int64(0) {
		t.Fatalf("DBSIZE after ZREM = %v", r)
	}
}

func TestRangeAndPipeline(t *testing.T) {
	_, cl := newTestServer(t)
	var cmds [][][]byte
	for i := 0; i < 50; i++ {
		cmds = append(cmds, [][]byte{
			[]byte("ZADD"), []byte("s"), []byte(fmt.Sprintf("m%03d", i)), []byte(fmt.Sprint(i)),
		})
	}
	replies, err := cl.Pipeline(cmds)
	if err != nil || len(replies) != 50 {
		t.Fatalf("pipeline: %d replies, err %v", len(replies), err)
	}
	r, err := cl.Do([]byte("ZRANGEBYLEX"), []byte("s"), []byte("m010"), []byte("5"))
	if err != nil {
		t.Fatal(err)
	}
	arr := r.([]interface{})
	if len(arr) != 5 {
		t.Fatalf("range returned %d members", len(arr))
	}
	for i, m := range arr {
		want := fmt.Sprintf("m%03d", 10+i)
		if string(m.([]byte)) != want {
			t.Fatalf("range[%d] = %s, want %s", i, m, want)
		}
	}
}

func TestZMScore(t *testing.T) {
	_, cl := newTestServer(t)
	for i := 0; i < 20; i++ {
		cl.Do([]byte("ZADD"), []byte("s"), []byte(fmt.Sprintf("m%02d", i)), []byte(fmt.Sprint(i)))
	}
	r, err := cl.Do([]byte("ZMSCORE"), []byte("s"),
		[]byte("m03"), []byte("nope"), []byte("m17"), []byte("m03"))
	if err != nil {
		t.Fatal(err)
	}
	arr := r.([]interface{})
	if len(arr) != 4 {
		t.Fatalf("ZMSCORE returned %d elements", len(arr))
	}
	want := []interface{}{"3", nil, "17", "3"}
	for i, w := range want {
		if w == nil {
			if arr[i].([]byte) != nil {
				t.Fatalf("ZMSCORE[%d] = %v, want nil", i, arr[i])
			}
			continue
		}
		if string(arr[i].([]byte)) != w.(string) {
			t.Fatalf("ZMSCORE[%d] = %s, want %s", i, arr[i], w)
		}
	}
	// Arity error.
	if r, _ := cl.Do([]byte("ZMSCORE"), []byte("s")); fmt.Sprint(r) == "" {
		t.Fatal("expected arity error")
	}
}

// TestPipelinedZScoreBatch drives the batched dispatch path: a pipeline of
// ZSCOREs against one set is collapsed into MultiGet calls server-side, and
// the replies must still come back in order with correct values.
func TestPipelinedZScoreBatch(t *testing.T) {
	_, cl := newTestServer(t)
	var load [][][]byte
	for i := 0; i < 300; i++ {
		load = append(load, [][]byte{
			[]byte("ZADD"), []byte("s"), []byte(fmt.Sprintf("m%03d", i)), []byte(fmt.Sprint(i)),
		})
	}
	if _, err := cl.Pipeline(load); err != nil {
		t.Fatal(err)
	}
	// A pure-ZSCORE pipeline longer than the server's batch cap, with hits
	// and misses interleaved.
	var pipe [][][]byte
	for i := 0; i < 200; i++ {
		m := fmt.Sprintf("m%03d", i*2) // misses for i*2 >= 300
		pipe = append(pipe, [][]byte{[]byte("ZSCORE"), []byte("s"), []byte(m)})
	}
	replies, err := cl.Pipeline(pipe)
	if err != nil || len(replies) != 200 {
		t.Fatalf("pipeline: %d replies, err %v", len(replies), err)
	}
	for i, r := range replies {
		if i*2 < 300 {
			if string(r.([]byte)) != fmt.Sprint(i*2) {
				t.Fatalf("reply[%d] = %v, want %d", i, r, i*2)
			}
		} else if r.([]byte) != nil {
			t.Fatalf("reply[%d] = %v, want nil", i, r)
		}
	}
	// A mixed pipeline: ZSCORE runs interrupted by writes and other sets
	// must still answer in order with pre-write values visible in order.
	mixed := [][][]byte{
		{[]byte("ZSCORE"), []byte("s"), []byte("m000")},
		{[]byte("ZSCORE"), []byte("s"), []byte("m001")},
		{[]byte("ZADD"), []byte("s"), []byte("m000"), []byte("999")},
		{[]byte("ZSCORE"), []byte("s"), []byte("m000")},
		{[]byte("ZSCORE"), []byte("other"), []byte("m000")},
		{[]byte("PING")},
	}
	rs, err := cl.Pipeline(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if string(rs[0].([]byte)) != "0" || string(rs[1].([]byte)) != "1" {
		t.Fatalf("pre-write scores = %v %v", rs[0], rs[1])
	}
	if rs[2] != int64(0) {
		t.Fatalf("ZADD update reply = %v, want 0", rs[2])
	}
	if string(rs[3].([]byte)) != "999" {
		t.Fatalf("post-write score = %v, want 999", rs[3])
	}
	if rs[4].([]byte) != nil {
		t.Fatalf("other-set score = %v, want nil", rs[4])
	}
	if rs[5] != "PONG" {
		t.Fatalf("PING = %v", rs[5])
	}
}

// TestPartialPipelineDoesNotStall: a complete command followed by a
// half-received next command must still get its reply immediately — the
// batch drain must not block on the partial command while withholding the
// finished one's reply.
func TestPartialPipelineDoesNotStall(t *testing.T) {
	srv := NewServerExec(func(c int) index.Index { return skiplist.New(1) }, 64, ExecSerial)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One complete PING plus the first bytes of a second command.
	if _, err := conn.Write([]byte("*1\r\n$4\r\nPING\r\n*1\r\n$4\r\nPI")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("no reply for complete command behind a partial one: %v", err)
	}
	if string(buf[:n]) != "+PONG\r\n" {
		t.Fatalf("reply = %q", buf[:n])
	}
	// Completing the second command yields its reply too.
	if _, err := conn.Write([]byte("NG\r\n")); err != nil {
		t.Fatal(err)
	}
	n, err = conn.Read(buf)
	if err != nil || string(buf[:n]) != "+PONG\r\n" {
		t.Fatalf("completed second command reply = %q, %v", buf[:n], err)
	}
}

// TestProtocolErrorReply: malformed RESP from a client must draw an
// "-ERR Protocol error" reply before the server drops the connection —
// the old server closed silently, leaving the client nothing to diagnose
// with. A clean disconnect (EOF between commands) must NOT produce one.
func TestProtocolErrorReply(t *testing.T) {
	srv := NewServerExec(func(c int) index.Index { return skiplist.New(1) }, 64, ExecSerial)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	read := func(conn net.Conn) string {
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		var out []byte
		buf := make([]byte, 256)
		for {
			n, err := conn.Read(buf)
			out = append(out, buf[:n]...)
			if err != nil { // server closed after the error reply
				return string(out)
			}
		}
	}

	// Malformed first command: error reply, then close.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("*x\r\n")); err != nil {
		t.Fatal(err)
	}
	if got := read(conn); !strings.HasPrefix(got, "-ERR Protocol error") {
		t.Fatalf("malformed command drew %q, want -ERR Protocol error prefix", got)
	}

	// Malformed command mid-pipeline: the completed command's reply must
	// still arrive, followed by the protocol-error reply, then close.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Write([]byte("*1\r\n$4\r\nPING\r\n*x\r\n")); err != nil {
		t.Fatal(err)
	}
	got := read(conn2)
	if !strings.HasPrefix(got, "+PONG\r\n") {
		t.Fatalf("mid-pipeline: completed command's reply missing: %q", got)
	}
	if !strings.Contains(got, "-ERR Protocol error") {
		t.Fatalf("mid-pipeline protocol error drew %q, want -ERR Protocol error reply", got)
	}

	// Clean EOF: no error reply, just a close.
	conn3, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn3.Write([]byte("*1\r\n$4\r\nPING\r\n")); err != nil {
		t.Fatal(err)
	}
	conn3.(*net.TCPConn).CloseWrite()
	if got := read(conn3); got != "+PONG\r\n" {
		t.Fatalf("clean EOF drew %q, want only +PONG", got)
	}
	conn3.Close()
}

// rawServer speaks raw RESP so tests can script malformed replies: it reads
// commands and answers the i-th command with replies[i] (cycling the last
// entry), closing when told to.
func rawServer(t *testing.T, replies []string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := resp.NewReader(conn)
		for i := 0; ; i++ {
			if _, err := r.ReadCommand(); err != nil {
				return
			}
			rep := replies[len(replies)-1]
			if i < len(replies) {
				rep = replies[i]
			}
			if rep == "" { // scripted mid-pipeline hangup
				return
			}
			if _, err := conn.Write([]byte(rep)); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestPipelineErrorDoesNotDesync is the regression test for the pipeline
// desync bug: when one reply in a pipeline is malformed, the old client
// returned immediately, leaving the rest of the pipeline's replies buffered
// — so the NEXT Do read a stale reply belonging to the failed pipeline.
// The fixed client drains the remaining replies before returning the error.
func TestPipelineErrorDoesNotDesync(t *testing.T) {
	addr := rawServer(t, []string{":0\r\n", ":not-an-int\r\n", ":2\r\n", ":3\r\n"})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ping := [][]byte{[]byte("PING")}
	if _, err := cl.Pipeline([][][]byte{ping, ping, ping}); err == nil {
		t.Fatal("pipeline with a malformed reply reported no error")
	}
	// The connection must be re-synchronized: the follow-up command gets ITS
	// OWN reply (:3), not the failed pipeline's leftover (:2).
	r, err := cl.Do([]byte("PING"))
	if err != nil {
		t.Fatalf("Do after drained pipeline error: %v", err)
	}
	if r != int64(3) {
		t.Fatalf("Do read %v — a stale reply from the failed pipeline, want 3", r)
	}
}

// TestPipelineDrainSurvivesAggregateParseError: a malformed value INSIDE an
// array reply must not desynchronize the drain — the reader consumes the
// whole aggregate frame before surfacing the error, so the remaining
// top-level replies are drained correctly and the next Do still gets its
// own reply (not a leftover array element).
func TestPipelineDrainSurvivesAggregateParseError(t *testing.T) {
	addr := rawServer(t, []string{":1\r\n", "*3\r\n:1\r\n:bad\r\n:2\r\n", ":3\r\n", ":4\r\n"})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ping := [][]byte{[]byte("PING")}
	if _, err := cl.Pipeline([][][]byte{ping, ping, ping}); err == nil {
		t.Fatal("pipeline with a malformed array element reported no error")
	}
	r, err := cl.Do([]byte("PING"))
	if err != nil {
		t.Fatalf("Do after aggregate parse error: %v", err)
	}
	if r != int64(4) {
		t.Fatalf("Do read %v — a stale reply from inside the failed pipeline, want 4", r)
	}
}

// TestPipelinePoisonOnFramingError: when a reply's framing (not just its
// value) is malformed, the stream position is unknown — the client must
// poison immediately instead of draining replies it would misread.
func TestPipelinePoisonOnFramingError(t *testing.T) {
	addr := rawServer(t, []string{":1\r\n", "?junk\r\n", ":2\r\n"})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ping := [][]byte{[]byte("PING")}
	if _, err := cl.Pipeline([][][]byte{ping, ping, ping}); err == nil {
		t.Fatal("pipeline with a framing error reported no error")
	}
	if _, err := cl.Do([]byte("PING")); err == nil {
		t.Fatal("Do on a framing-poisoned client reported no error")
	}
}

// TestPipelinePoisonOnTransportFailure: when the server hangs up
// mid-pipeline, draining is impossible; the client must fail fast on every
// subsequent call instead of blocking or reading garbage.
func TestPipelinePoisonOnTransportFailure(t *testing.T) {
	addr := rawServer(t, []string{":0\r\n", ""})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ping := [][]byte{[]byte("PING")}
	if _, err := cl.Pipeline([][][]byte{ping, ping, ping}); err == nil {
		t.Fatal("pipeline against a hung-up server reported no error")
	}
	if _, err := cl.Do([]byte("PING")); err == nil {
		t.Fatal("Do on a poisoned client reported no error")
	}
}

// TestShardedFactory runs the server over a sharded engine: batched
// pipeline dispatch lands on the scatter-gather MultiGet path, and ordered
// ZRANGEBYLEX crosses shard boundaries via the merge cursor.
func TestShardedFactory(t *testing.T) {
	factory := ShardedFactory(func(c int) index.Index { return skiplist.New(1) }, 4)
	srv := NewServerExec(factory, 64, ExecSerial)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var load [][][]byte
	for i := 0; i < 200; i++ {
		load = append(load, [][]byte{
			[]byte("ZADD"), []byte("s"), []byte(fmt.Sprintf("m%03d", i)), []byte(fmt.Sprint(i)),
		})
	}
	if _, err := cl.Pipeline(load); err != nil {
		t.Fatal(err)
	}
	var pipe [][][]byte
	for i := 0; i < 100; i++ {
		pipe = append(pipe, [][]byte{[]byte("ZSCORE"), []byte("s"), []byte(fmt.Sprintf("m%03d", i*2))})
	}
	replies, err := cl.Pipeline(pipe)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range replies {
		if string(r.([]byte)) != fmt.Sprint(i*2) {
			t.Fatalf("sharded ZSCORE[%d] = %v, want %d", i, r, i*2)
		}
	}
	// Ordered scan across shard boundaries.
	r, err := cl.Do([]byte("ZRANGEBYLEX"), []byte("s"), []byte("m050"), []byte("10"))
	if err != nil {
		t.Fatal(err)
	}
	arr := r.([]interface{})
	if len(arr) != 10 {
		t.Fatalf("sharded range returned %d members", len(arr))
	}
	for i, m := range arr {
		want := fmt.Sprintf("m%03d", 50+i)
		if string(m.([]byte)) != want {
			t.Fatalf("sharded range[%d] = %s, want %s", i, m, want)
		}
	}
}

// TestConcurrentSetCreationSameName: many goroutines race to create the
// SAME set — the striped keyspace's double-checked creation must hand
// every caller the one winning index (run under -race in CI). If two
// indexes were ever created for one name, some writers' members would land
// in an orphaned index and the final count would come up short.
func TestConcurrentSetCreationSameName(t *testing.T) {
	srv := NewServerExec(func(c int) index.Index {
		return cuckootrie.New(cuckootrie.Config{CapacityHint: c, AutoResize: true})
	}, 64, ExecStripedConn)
	const writers = 16
	var wg sync.WaitGroup
	first := make([]index.Index, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ix := srv.set([]byte("shared"))
			first[g] = ix
			if _, err := ix.Set([]byte(fmt.Sprintf("member-%02d", g)), uint64(g)); err != nil {
				t.Errorf("writer %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < writers; g++ {
		if first[g] != first[0] {
			t.Fatalf("writer %d got a different index instance than writer 0", g)
		}
	}
	ix := srv.set([]byte("shared"))
	if ix.Len() != writers {
		t.Fatalf("shared set has %d members, want %d — a creation race dropped an index",
			ix.Len(), writers)
	}
	if srv.ks.totalLen() != writers {
		t.Fatalf("keyspace total %d, want %d", srv.ks.totalLen(), writers)
	}
}

// TestConcurrentSetCreationAcrossStripes: goroutines creating DISTINCT
// sets concurrently — lookups land on different stripes and must not lose
// map entries or serialize incorrectly; every set ends up with exactly its
// own member, and DBSIZE sums across all stripes.
func TestConcurrentSetCreationAcrossStripes(t *testing.T) {
	srv, cl := newTestServer(t)
	if srv.Stripes() < 8 {
		t.Fatalf("keyspace has %d stripes, want >= 8", srv.Stripes())
	}
	const sets = 64
	var wg sync.WaitGroup
	for g := 0; g < sets; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("set-%03d", g)
			ix := srv.set([]byte(name))
			if _, err := ix.Set([]byte("m"), uint64(g)); err != nil {
				t.Errorf("set %s: %v", name, err)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < sets; g++ {
		ix := srv.set([]byte(fmt.Sprintf("set-%03d", g)))
		if v, ok := ix.Get([]byte("m")); !ok || v != uint64(g) {
			t.Fatalf("set-%03d member = %d,%v want %d", g, v, ok, g)
		}
		if ix.Len() != 1 {
			t.Fatalf("set-%03d has %d members, want 1", g, ix.Len())
		}
	}
	if r, _ := cl.Do([]byte("DBSIZE")); r != int64(sets) {
		t.Fatalf("DBSIZE = %v, want %d", r, sets)
	}
	// FLUSHALL clears every stripe.
	if r, _ := cl.Do([]byte("FLUSHALL")); r != "OK" {
		t.Fatalf("FLUSHALL = %v", r)
	}
	if r, _ := cl.Do([]byte("DBSIZE")); r != int64(0) {
		t.Fatalf("DBSIZE after FLUSHALL = %v", r)
	}
}

// TestRangeRoutedFactory serves range-partitioned sorted sets: ZRANGEBYLEX
// runs ride the chain cursor (single-shard fast path when the range allows
// it) and must still return globally ordered members.
func TestRangeRoutedFactory(t *testing.T) {
	factory := ShardedFactoryWithRouter(
		func(c int) index.Index { return skiplist.New(1) }, 4, sharded.NewPrefixRouter)
	srv := NewServerExec(factory, 64, ExecSerial)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// First bytes spanning all four prefix shards.
	var load [][][]byte
	for i := 0; i < 256; i += 2 {
		load = append(load, [][]byte{
			[]byte("ZADD"), []byte("s"), {byte(i), 'x'}, []byte(fmt.Sprint(i)),
		})
	}
	if _, err := cl.Pipeline(load); err != nil {
		t.Fatal(err)
	}
	r, err := cl.Do([]byte("ZRANGEBYLEX"), []byte("s"), []byte{0x41}, []byte("8"))
	if err != nil {
		t.Fatal(err)
	}
	arr := r.([]interface{})
	if len(arr) != 8 {
		t.Fatalf("range returned %d members", len(arr))
	}
	for i, m := range arr {
		want := []byte{byte(0x42 + 2*i), 'x'}
		if string(m.([]byte)) != string(want) {
			t.Fatalf("range[%d] = %x, want %x", i, m, want)
		}
	}
	// A range crossing the 0x80 shard boundary stays ordered.
	r, err = cl.Do([]byte("ZRANGEBYLEX"), []byte("s"), []byte{0x7b}, []byte("6"))
	if err != nil {
		t.Fatal(err)
	}
	arr = r.([]interface{})
	prev := []byte{}
	for i, m := range arr {
		b := m.([]byte)
		if string(b) <= string(prev) {
			t.Fatalf("cross-boundary range disorder at %d: %x after %x", i, b, prev)
		}
		prev = b
	}
}

// TestSampledRoutedPreload serves sampled-routed sorted sets: Preload's
// bulk load trains the router's boundaries from the preloaded key stream,
// after which the keys must be spread across shards (not piled on shard 0
// as an untrained router would), reads must come back over the wire, and
// ZRANGEBYLEX must stay globally ordered across the sampled boundaries.
func TestSampledRoutedPreload(t *testing.T) {
	factory := ShardedFactoryWithRouter(
		func(c int) index.Index { return skiplist.New(1) }, 4, sharded.NewSampledRouter)
	srv := NewServerExec(factory, 1024, ExecSerial)
	// Skewed keys: a shared prefix defeats first-byte (prefix) routing, but
	// sampled boundaries must still spread them.
	keys := make([][]byte, 400)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user:%05d", i*7))
		vals[i] = uint64(i)
	}
	added, err := srv.Preload("warm", keys, vals)
	if err != nil || added != len(keys) {
		t.Fatalf("Preload = %d, %v", added, err)
	}
	sx, ok := srv.set([]byte("warm")).(*sharded.Index)
	if !ok {
		t.Fatal("sampled factory did not build a sharded index")
	}
	lens := sx.ShardLens()
	for s, l := range lens {
		if l == 0 {
			t.Fatalf("shard %d empty after sampled preload: %v", s, lens)
		}
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if r, _ := cl.Do([]byte("ZSCORE"), []byte("warm"), []byte("user:00707")); string(r.([]byte)) != "101" {
		t.Fatalf("ZSCORE preloaded key = %v", r)
	}
	r, err := cl.Do([]byte("ZRANGEBYLEX"), []byte("warm"), []byte("user:0070"), []byte("20"))
	if err != nil {
		t.Fatal(err)
	}
	arr := r.([]interface{})
	if len(arr) != 20 {
		t.Fatalf("sampled range returned %d members", len(arr))
	}
	prev := ""
	for i, m := range arr {
		b := string(m.([]byte))
		if b <= prev {
			t.Fatalf("sampled range disorder at %d: %q after %q", i, b, prev)
		}
		prev = b
	}
}

// TestPreload bulk-loads a set off the RESP path and reads it back over
// the wire.
func TestPreload(t *testing.T) {
	factory := ShardedFactory(func(c int) index.Index { return skiplist.New(1) }, 4)
	srv := NewServerExec(factory, 1024, ExecSerial)
	keys := make([][]byte, 500)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%04d", i))
		vals[i] = uint64(i)
	}
	added, err := srv.Preload("warm", keys, vals)
	if err != nil || added != len(keys) {
		t.Fatalf("Preload = %d, %v", added, err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if r, _ := cl.Do([]byte("ZSCORE"), []byte("warm"), []byte("k0123")); string(r.([]byte)) != "123" {
		t.Fatalf("ZSCORE preloaded key = %v", r)
	}
	if r, _ := cl.Do([]byte("DBSIZE")); r != int64(len(keys)) {
		t.Fatalf("DBSIZE = %v, want %d", r, len(keys))
	}
}

// TestErrors: each rejected command shape draws its exact error reply, and
// the PING pipelined behind it still reads its own PONG. Every spec with
// an arity bound has a wrong-arity row, so a bound added to cmdSpecs needs
// a row here; PSYNC's is in TestPSyncHandshakeRaw, since its connection
// leaves the command path.
func TestErrors(t *testing.T) {
	_, cl := newTestServer(t)
	arity := func(name string) string { return "ERR wrong number of arguments for " + name }
	cases := []struct{ cmd, want string }{
		{"NOPE", "ERR unknown command 'NOPE'"},
		{"ZADD s m notanint", "ERR value is not an integer"},
		{"ZADD s m", arity("ZADD")},
		{"zadd s m 1 x", arity("ZADD")},
		{"ZSCORE s", arity("ZSCORE")},
		{"ZSCORE s m x", arity("ZSCORE")},
		{"ZMSCORE s", arity("ZMSCORE")},
		{"ZREM s", arity("ZREM")},
		{"ZREM s m x", arity("ZREM")},
		{"ZRANGEBYLEX s a", arity("ZRANGEBYLEX")},
		{"ZRANGEBYLEX s a 1 x", arity("ZRANGEBYLEX")},
		{"REPLICAOF h", arity("REPLICAOF")},
		{"SlaveOf h 1 x", arity("REPLICAOF")},
		{"WAIT 0", arity("WAIT")},
		{"WAIT 0 0 x", arity("WAIT")},
		{"INFO a b", arity("INFO")},
		{"LATENCY", arity("LATENCY")},
		{"SLOWLOG", arity("SLOWLOG")},
	}
	covered := map[cmdID]bool{}
	for _, tc := range cases {
		var cmd [][]byte
		for _, a := range strings.Fields(tc.cmd) {
			cmd = append(cmd, []byte(a))
		}
		covered[classify(cmd[0])] = true
		rs, err := cl.Pipeline([][][]byte{cmd, {[]byte("PING")}})
		if err != nil {
			t.Fatalf("%s: %v", tc.cmd, err)
		}
		if e, ok := rs[0].(error); !ok || e.Error() != tc.want {
			t.Errorf("%s = %#v, want error %q", tc.cmd, rs[0], tc.want)
		}
		if rs[1] != "PONG" {
			t.Fatalf("PING after %s read %#v, want PONG", tc.cmd, rs[1])
		}
	}
	for id, sp := range cmdSpecs {
		if (sp.min > 1 || sp.max < many) && cmdID(id) != cmdPSync && !covered[cmdID(id)] {
			t.Errorf("%s has an arity bound but no wrong-arity case", sp.name)
		}
	}
	// Commands that never checked their arity still take anything.
	if r, err := cl.Do([]byte("PING"), []byte("x"), []byte("y")); err != nil || r != "PONG" {
		t.Errorf("PING x y = %#v, %v; want PONG", r, err)
	}
	if r, err := cl.Do([]byte("DBSIZE"), []byte("x")); err != nil || r != int64(0) {
		t.Errorf("DBSIZE x = %#v, %v; want 0", r, err)
	}
}

// TestCommandTable pins the command table's invariants: every name fits
// classify's stack array and round-trips whatever its case, SLAVEOF is
// REPLICAOF's alias, a name longer than the array is unknown, and PSYNC —
// which leaves the command path — has no stat family.
func TestCommandTable(t *testing.T) {
	for id, sp := range cmdSpecs {
		if len(sp.name) == 0 || len(sp.name) > maxCmdName {
			t.Errorf("cmdSpecs[%d] name %q: want 1..%d bytes", id, sp.name, maxCmdName)
		}
		if sp.name != strings.ToLower(sp.name) {
			t.Errorf("cmdSpecs[%d] name %q is not lower case", id, sp.name)
		}
		if sp.min < 1 || sp.min > sp.max {
			t.Errorf("%s: arity %d..%d", sp.name, sp.min, sp.max)
		}
		if sp.keyed && sp.min < 2 {
			t.Errorf("%s: keyed, but accepts a command without cmd[1]", sp.name)
		}
		mixed := []byte(sp.name)
		for i := 0; i < len(mixed); i += 2 {
			mixed[i] -= 'a' - 'A'
		}
		for _, name := range []string{sp.name, strings.ToUpper(sp.name), string(mixed)} {
			if got := classify([]byte(name)); got != cmdID(id) {
				t.Errorf("classify(%q) = %d, want %d", name, got, id)
			}
		}
	}
	for _, name := range []string{"SLAVEOF", "slaveof", "SlaveOf"} {
		if got := classify([]byte(name)); got != cmdReplicaOf {
			t.Errorf("classify(%q) = %d, want REPLICAOF (%d)", name, got, cmdReplicaOf)
		}
	}
	for _, name := range []string{"", "zscor", "zrangebylexx", strings.Repeat("z", maxCmdName+1)} {
		if got := classify([]byte(name)); got != cmdUnknown {
			t.Errorf("classify(%q) = %d, want unknown", name, got)
		}
	}
	if cmdPSync < numFamilies || family(cmdPSync) != cmdUnknown {
		t.Errorf("PSYNC has stat family %d; it leaves the command path and must count as unknown", family(cmdPSync))
	}
}

// TestErrorRepliesCannotForgeReplies: error replies echo client bytes — an
// unknown command's name, an unknown LATENCY/SLOWLOG subcommand. A CRLF in
// those bytes used to split the reply, so the pipeline
// ["X\r\n:1\r\n+OK", PING] answered [error, 1] and the connection's next
// PING read "OK'": every later reply belonged to an earlier command.
func TestErrorRepliesCannotForgeReplies(t *testing.T) {
	_, cl := newTestServer(t)
	rs, err := cl.Pipeline([][][]byte{
		{[]byte("X\r\n:1\r\n+OK")},
		{[]byte("LATENCY"), []byte("X\r\n:2")},
		{[]byte("SLOWLOG"), []byte("X\n+OK")},
		{[]byte("PING")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := rs[i].(error); !ok {
			t.Fatalf("reply %d = %#v, want an error reply", i, rs[i])
		}
	}
	if rs[3] != "PONG" {
		t.Fatalf("PING in the pipeline read %#v, want PONG", rs[3])
	}
	if r, err := cl.Do([]byte("PING")); err != nil || r != "PONG" {
		t.Fatalf("next PING = %#v, %v; want PONG", r, err)
	}
}

func TestFlushAll(t *testing.T) {
	_, cl := newTestServer(t)
	cl.Do([]byte("ZADD"), []byte("s"), []byte("x"), []byte("1"))
	cl.Do([]byte("FLUSHALL"))
	if r, _ := cl.Do([]byte("DBSIZE")); r != int64(0) {
		t.Fatalf("DBSIZE after FLUSHALL = %v", r)
	}
}
