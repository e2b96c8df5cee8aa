package miniredis

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/persist"
)

var allExecModes = []ExecMode{ExecSerial, ExecStripedConn}

// newExecServer starts a memory-only server. Tests that sweep allExecModes
// pass trieFactory: striped-conn is honored only over a concurrent-safe
// engine.
func newExecServer(t *testing.T, factory EngineFactory, mode ExecMode) (*Server, *Client) {
	t.Helper()
	srv := NewServerExec(factory, 64, mode)
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

func TestParseExecMode(t *testing.T) {
	for _, s := range []string{"serial", "striped-conn"} {
		m, err := ParseExecMode(s)
		if err != nil || string(m) != s {
			t.Fatalf("ParseExecMode(%q) = %v, %v", s, m, err)
		}
	}
	for _, s := range []string{"threaded", "striped-exec"} {
		_, err := ParseExecMode(s)
		if err == nil || !strings.Contains(err.Error(), "want serial or striped-conn") {
			t.Fatalf("ParseExecMode(%q) error = %v, want the two-value message", s, err)
		}
	}
}

// TestStripedConnFallsBackToSerial: striped-conn runs commands with no
// execution lock, so over a non-concurrent engine (skiplist) the server
// must run serial instead — memory-only included, where no write mutex
// exists either. Two connections pipeline ZADDs into ONE set; -race catches
// unlocked skiplist.Set calls if the fallback is missing.
func TestStripedConnFallsBackToSerial(t *testing.T) {
	srv, cl := newExecServer(t, skiplistFactory, ExecStripedConn)
	if srv.Mode() != ExecSerial {
		t.Fatalf("Mode() = %v over a non-concurrent engine, want %v", srv.Mode(), ExecSerial)
	}
	addr := srv.ln.Addr().String()
	const conns, perConn = 2, 200
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs[g] = err
				return
			}
			defer c.Close()
			cmds := make([][][]byte, perConn)
			for i := range cmds {
				cmds[i] = [][]byte{[]byte("ZADD"), []byte("s"), []byte(fmt.Sprintf("c%dm%03d", g, i)), []byte("1")}
			}
			_, errs[g] = c.Pipeline(cmds)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("conn %d: %v", g, err)
		}
	}
	if r, err := cl.Do([]byte("DBSIZE")); err != nil || r != int64(conns*perConn) {
		t.Fatalf("DBSIZE = %v, %v, want %d", r, err, conns*perConn)
	}
}

// TestExecModeMatrix runs the same pipeline — writes interleaved with the
// keyspace-wide commands DBSIZE and FLUSHALL — under every
// execution mode and checks each reply positionally: whatever the
// executor does internally, replies must come back in submission order
// with serial-equivalent values.
func TestExecModeMatrix(t *testing.T) {
	for _, mode := range allExecModes {
		t.Run(string(mode), func(t *testing.T) {
			srv, cl := newExecServer(t, trieFactory, mode)
			if srv.Mode() != mode {
				t.Fatalf("Mode() = %v, want %v", srv.Mode(), mode)
			}
			var cmds [][][]byte
			var want []interface{}
			for i := 0; i < 20; i++ {
				cmds = append(cmds, [][]byte{[]byte("ZADD"),
					[]byte(fmt.Sprintf("set%d", i%4)), []byte(fmt.Sprintf("m%02d", i)), []byte(fmt.Sprint(i))})
				want = append(want, int64(1))
			}
			cmds = append(cmds, [][]byte{[]byte("DBSIZE")})
			want = append(want, int64(20))
			for i := 20; i < 40; i++ {
				cmds = append(cmds, [][]byte{[]byte("ZADD"),
					[]byte(fmt.Sprintf("set%d", i%4)), []byte(fmt.Sprintf("m%02d", i)), []byte(fmt.Sprint(i))})
				want = append(want, int64(1))
			}
			cmds = append(cmds, [][]byte{[]byte("DBSIZE")})
			want = append(want, int64(40))
			cmds = append(cmds, [][]byte{[]byte("FLUSHALL")})
			want = append(want, "OK")
			cmds = append(cmds, [][]byte{[]byte("DBSIZE")})
			want = append(want, int64(0))
			cmds = append(cmds, [][]byte{[]byte("ZADD"), []byte("a"), []byte("x"), []byte("7")})
			want = append(want, int64(1))
			cmds = append(cmds, [][]byte{[]byte("ZSCORE"), []byte("a"), []byte("x")})
			want = append(want, "7")

			out, err := cl.Pipeline(cmds)
			if err != nil || len(out) != len(want) {
				t.Fatalf("pipeline: %d replies, %v", len(out), err)
			}
			for i, w := range want {
				switch w := w.(type) {
				case int64:
					if out[i] != w {
						t.Fatalf("reply[%d] = %v, want %d", i, out[i], w)
					}
				case string:
					got, ok := out[i].(string)
					if !ok {
						if b, bok := out[i].([]byte); bok {
							got, ok = string(b), true
						}
					}
					if !ok || got != w {
						t.Fatalf("reply[%d] = %v, want %q", i, out[i], w)
					}
				}
			}
		})
	}
}

// TestSerialOrderingRace hammers a serial server over several connections
// with pipelines that each touch a private set AND a shared set, on a
// non-concurrent engine (skiplist): cmdMu must serialize the shared set
// across connections (the race detector proves it), and read-your-write
// must hold within each pipeline.
func TestSerialOrderingRace(t *testing.T) {
	srv, _ := newExecServer(t, skiplistFactory, ExecSerial)
	const workers, iters = 8, 50
	addr := srv.ln.Addr().String()
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			own := []byte(fmt.Sprintf("own%d", g))
			member := []byte(fmt.Sprintf("g%d", g))
			for j := 1; j <= iters; j++ {
				val := []byte(fmt.Sprint(j))
				out, err := cl.Pipeline([][][]byte{
					{[]byte("ZADD"), own, []byte("m"), val},
					{[]byte("ZADD"), []byte("shared"), member, val},
					{[]byte("ZSCORE"), own, []byte("m")},
					{[]byte("ZSCORE"), []byte("shared"), member},
				})
				if err != nil {
					errCh <- err
					return
				}
				if got := string(out[2].([]byte)); got != string(val) {
					errCh <- fmt.Errorf("worker %d iter %d: own read-your-write = %s, want %s", g, j, got, val)
					return
				}
				if got := string(out[3].([]byte)); got != string(val) {
					errCh <- fmt.Errorf("worker %d iter %d: shared read-your-write = %s, want %s", g, j, got, val)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	cl := mustDial(t, addr)
	defer cl.Close()
	// workers private sets with one member each + the shared set's members.
	if r, err := cl.Do([]byte("DBSIZE")); err != nil || r != int64(workers+workers) {
		t.Fatalf("DBSIZE = %v, %v, want %d", r, err, workers+workers)
	}
}

func mustDial(t *testing.T, addr string) *Client {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestWaitAllModes runs WAIT — lone and mid-pipeline — under every
// execution mode on a persistent fsync=group server with no replicas
// attached. Before the executor refactor, a pipelined WAIT under serial
// mode parked on the group syncer while holding cmdMu (the exact deadlock
// ctvet's lockorder pass rejects); dispatch now splits WAIT out of the
// batch in every mode, so all of these must complete promptly.
func TestWaitAllModes(t *testing.T) {
	for _, mode := range allExecModes {
		t.Run(string(mode), func(t *testing.T) {
			srv := NewServerExec(trieFactory, 64, mode)
			if _, err := srv.EnablePersistence(t.TempDir(), PersistOptions{Policy: persist.FsyncGroup}); err != nil {
				t.Fatal(err)
			}
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cl := mustDial(t, addr)
			defer cl.Close()

			// Lone WAIT on a fresh connection (no prior write to gate on).
			if r, err := cl.Do([]byte("WAIT"), []byte("0"), []byte("100")); err != nil || r != int64(0) {
				t.Fatalf("lone WAIT = %v, %v", r, err)
			}
			// Lone WAIT after a write: gates on local durability, then replies.
			if r, err := cl.Do([]byte("ZADD"), []byte("s"), []byte("a"), []byte("1")); err != nil || r != int64(1) {
				t.Fatalf("ZADD = %v, %v", r, err)
			}
			if r, err := cl.Do([]byte("WAIT"), []byte("0"), []byte("1000")); err != nil || r != int64(0) {
				t.Fatalf("WAIT after write = %v, %v", r, err)
			}
			// Pipelined: writes before each WAIT must be durable when it replies.
			out, err := cl.Pipeline([][][]byte{
				{[]byte("ZADD"), []byte("s"), []byte("b"), []byte("2")},
				{[]byte("WAIT"), []byte("0"), []byte("1000")},
				{[]byte("ZADD"), []byte("s"), []byte("c"), []byte("3")},
				{[]byte("WAIT"), []byte("0"), []byte("1000")},
			})
			if err != nil {
				t.Fatal(err)
			}
			if out[0] != int64(1) || out[1] != int64(0) || out[2] != int64(1) || out[3] != int64(0) {
				t.Fatalf("pipelined WAIT replies = %v", out)
			}
			if last, durable := srv.wal.LSN(), srv.wal.DurableLSN(); durable < last {
				t.Fatalf("WAIT acked with DurableLSN=%d behind LSN=%d", durable, last)
			}
		})
	}
}

// TestSerialBGSaveNonConcurrent is the quiesce regression test: a
// NON-concurrent engine (skiplist) may only be snapshotted while command
// execution is stopped on cmdMu. Background saves race pipelined writers
// here; -race catches any snapshot iteration overlapping a Set if the
// quiesce is broken.
func TestSerialBGSaveNonConcurrent(t *testing.T) {
	srv := NewServerExec(skiplistFactory, 256, ExecSerial)
	if _, err := srv.EnablePersistence(t.TempDir(), PersistOptions{Policy: persist.FsyncNo}); err != nil {
		t.Fatal(err)
	}
	if !srv.quiesceSaves {
		t.Fatal("a non-concurrent engine must quiesce saves")
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const workers, iters = 4, 40
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			for j := 0; j < iters; j++ {
				cmds := make([][][]byte, 8)
				for k := range cmds {
					cmds[k] = [][]byte{[]byte("ZADD"), []byte(fmt.Sprintf("set%d", k)),
						[]byte(fmt.Sprintf("g%dj%dk%d", g, j, k)), []byte("1")}
				}
				if _, err := cl.Pipeline(cmds); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	// Snapshot continuously under load: the background path (BGSave) and
	// the command path (SAVE dispatched under cmdMu).
	cl := mustDial(t, addr)
	defer cl.Close()
	for k := 0; k < 10; k++ {
		srv.BGSave()
		if r, err := cl.Do([]byte("SAVE")); err != nil || r != "OK" {
			t.Fatalf("SAVE under load = %v, %v", r, err)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	srv.bgWg.Wait()
	if err := srv.LastBGSaveError(); err != nil {
		t.Fatalf("BGSave under load: %v", err)
	}
	if r, err := cl.Do([]byte("DBSIZE")); err != nil || r != int64(workers*iters*8) {
		t.Fatalf("DBSIZE = %v, %v, want %d", r, err, workers*iters*8)
	}
}

// TestManyConnectionsSoak soaks a server with 1000 concurrent connections
// in each execution mode (the per-connection buffers were sized down to
// make exactly this cheap): every connection's mixed pipeline replies in
// submission order, and afterwards every serve goroutine exits — no
// goroutine leak, no reply corruption.
func TestManyConnectionsSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("opens ~1000 connections per mode")
	}
	for _, mode := range allExecModes {
		t.Run(string(mode), func(t *testing.T) {
			srv, _ := newExecServer(t, trieFactory, mode)
			addr := srv.ln.Addr().String()
			baseline := runtime.NumGoroutine()

			const conns = 1000
			clients := make([]*Client, conns)
			for i := range clients {
				clients[i] = mustDial(t, addr)
			}
			var wg sync.WaitGroup
			errCh := make(chan error, conns)
			for i, cl := range clients {
				wg.Add(1)
				go func(i int, cl *Client) {
					defer wg.Done()
					set := []byte(fmt.Sprintf("soak%d", i%37))
					member := []byte(fmt.Sprintf("c%d", i))
					out, err := cl.Pipeline([][][]byte{
						{[]byte("PING")},
						{[]byte("ZADD"), set, member, []byte("1")},
						{[]byte("ZSCORE"), set, member},
					})
					if err != nil {
						errCh <- err
						return
					}
					if out[0] != "PONG" || out[1] != int64(1) || string(out[2].([]byte)) != "1" {
						errCh <- fmt.Errorf("conn %d replies = %v", i, out)
					}
				}(i, cl)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
			for _, cl := range clients {
				cl.Close()
			}
			// Every per-connection serve goroutine must wind down once its
			// client hangs up. Allow slack for runtime/test goroutines.
			deadline := time.Now().Add(10 * time.Second)
			for {
				if n := runtime.NumGoroutine(); n <= baseline+20 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("goroutines = %d, baseline %d: serve goroutines leaked", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}
