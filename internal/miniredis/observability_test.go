package miniredis

// Observability drills: the LATENCY / SLOWLOG / INFO surface is exercised
// over raw RESP (net.Dial + the resp package, no Client conveniences) in
// both execution modes, against a persistent fsync=always server so the WAL
// histograms (fsync duration, commit park, group batch size) have real
// samples. Plus the -maxconns cap.

import (
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	cuckootrie "repro"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/resp"
	"repro/internal/skiplist"
)

// rawConn speaks RESP over a plain TCP connection — the shape any real
// Redis client library would produce, with none of this package's Client
// helpers in the path.
type rawConn struct {
	t *testing.T
	c net.Conn
	r *resp.Reader
	w *resp.Writer
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{t: t, c: c, r: resp.NewReader(c), w: resp.NewWriter(c)}
}

func (rc *rawConn) do(args ...string) interface{} {
	rc.t.Helper()
	bs := make([][]byte, len(args))
	for i, a := range args {
		bs[i] = []byte(a)
	}
	if err := rc.w.WriteCommand(bs...); err != nil {
		rc.t.Fatal(err)
	}
	if err := rc.w.Flush(); err != nil {
		rc.t.Fatal(err)
	}
	v, err := rc.r.ReadReply()
	if err != nil {
		rc.t.Fatal(err)
	}
	return v
}

func TestObservabilityDrill(t *testing.T) {
	for _, mode := range allExecModes {
		t.Run(string(mode), func(t *testing.T) {
			dir, err := os.MkdirTemp("", "ct-obs-*")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { os.RemoveAll(dir) })
			srv := NewServerExec(func(c int) index.Index {
				return cuckootrie.New(cuckootrie.Config{CapacityHint: c, AutoResize: true})
			}, 1024, mode)
			if _, err := srv.EnablePersistence(dir, PersistOptions{Policy: persist.FsyncAlways}); err != nil {
				t.Fatal(err)
			}
			srv.SetSlowlogThreshold(0) // log every command: the drill asserts entry shape, not slowness
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				if err := srv.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
			})
			rc := dialRaw(t, addr)

			// Work the store: writes (parking on the group fsync), reads,
			// and one arity error for the error counter.
			for i := 0; i < 20; i++ {
				if v := rc.do("ZADD", "drill", fmt.Sprintf("m%02d", i), fmt.Sprint(i)); v != int64(1) {
					t.Fatalf("ZADD = %v", v)
				}
			}
			if v := rc.do("ZSCORE", "drill", "m00"); string(v.([]byte)) != "0" {
				t.Fatalf("ZSCORE = %v", v)
			}
			if v, ok := rc.do("ZADD", "drill").(error); !ok {
				t.Fatalf("short ZADD: want error reply, got %v", v)
			}
			if v := rc.do("WAIT", "0", "100"); v != int64(0) {
				t.Fatalf("WAIT = %v", v)
			}

			// LATENCY HISTOGRAM: alternating family name / details array;
			// the zadd entry must carry calls and non-empty buckets.
			hist, ok := rc.do("LATENCY", "HISTOGRAM").([]interface{})
			if !ok || len(hist) == 0 || len(hist)%2 != 0 {
				t.Fatalf("LATENCY HISTOGRAM shape: %v", hist)
			}
			foundZadd := false
			for i := 0; i+1 < len(hist); i += 2 {
				name := string(hist[i].([]byte))
				det := hist[i+1].([]interface{})
				if len(det) != 4 || string(det[0].([]byte)) != "calls" || string(det[2].([]byte)) != "histogram_usec" {
					t.Fatalf("LATENCY HISTOGRAM %s details: %v", name, det)
				}
				if name == "zadd" {
					foundZadd = true
					if det[1].(int64) < 20 {
						t.Fatalf("zadd calls = %v, want >= 20", det[1])
					}
					if buckets := det[3].([]interface{}); len(buckets) == 0 || len(buckets)%2 != 0 {
						t.Fatalf("zadd histogram_usec: %v", buckets)
					}
				}
			}
			if !foundZadd {
				t.Fatal("LATENCY HISTOGRAM: no zadd entry")
			}
			if one := rc.do("LATENCY", "HISTOGRAM", "zadd").([]interface{}); len(one) != 2 || string(one[0].([]byte)) != "zadd" {
				t.Fatalf("LATENCY HISTOGRAM zadd: %v", one)
			}

			// SLOWLOG: with threshold 0 every command logged; entries are
			// [id, unixtime, dur_us, args, exec-mode, stripe], newest first.
			if n := rc.do("SLOWLOG", "LEN").(int64); n == 0 {
				t.Fatal("SLOWLOG LEN = 0 with threshold 0")
			}
			ents := rc.do("SLOWLOG", "GET", "5").([]interface{})
			if len(ents) == 0 || len(ents) > 5 {
				t.Fatalf("SLOWLOG GET 5: %d entries", len(ents))
			}
			e := ents[0].([]interface{})
			if len(e) != 6 {
				t.Fatalf("slowlog entry arity = %d, want 6: %v", len(e), e)
			}
			if _, ok := e[0].(int64); !ok {
				t.Fatalf("slowlog id: %v", e[0])
			}
			if args := e[3].([]interface{}); len(args) == 0 {
				t.Fatal("slowlog entry has no args")
			}
			if got := string(e[4].([]byte)); got != string(mode) {
				t.Fatalf("slowlog exec mode = %q, want %q", got, mode)
			}
			if _, ok := e[5].(int64); !ok {
				t.Fatalf("slowlog stripe: %v", e[5])
			}
			if v := rc.do("SLOWLOG", "RESET"); v != "OK" {
				t.Fatalf("SLOWLOG RESET = %v", v)
			}
			// At threshold 0 the RESET itself is logged after it clears the
			// ring (as in Redis), so LEN is 1, and that one entry is it.
			if n := rc.do("SLOWLOG", "LEN").(int64); n > 1 {
				t.Fatalf("SLOWLOG LEN after RESET = %d", n)
			}
			if ents := rc.do("SLOWLOG", "GET").([]interface{}); len(ents) == 1 {
				args := ents[0].([]interface{})[3].([]interface{})
				if string(args[0].([]byte)) != "SLOWLOG" {
					t.Fatalf("post-RESET entry args: %v", args)
				}
			}

			// INFO commandstats / latencystats / persistence / clients.
			stats := string(rc.do("INFO", "commandstats").([]byte))
			if !strings.Contains(stats, "# Commandstats\r\n") || !strings.Contains(stats, "cmdstat_zadd:calls=") {
				t.Fatalf("INFO commandstats:\n%s", stats)
			}
			if !strings.Contains(stats, "cmdstat_zadd:calls=21,errors=1,") {
				t.Fatalf("INFO commandstats zadd calls/errors:\n%s", stats)
			}
			lat := string(rc.do("INFO", "latencystats").([]byte))
			if !strings.Contains(lat, "# Latencystats\r\n") || !strings.Contains(lat, "latency_percentiles_usec_zadd:p50=") {
				t.Fatalf("INFO latencystats:\n%s", lat)
			}
			pers := string(rc.do("INFO", "persistence").([]byte))
			for _, want := range []string{"aof_enabled:1", "aof_fsync_count:", "aof_commit_wait_count:", "aof_group_batch_count:"} {
				if !strings.Contains(pers, want) {
					t.Fatalf("INFO persistence missing %q:\n%s", want, pers)
				}
			}
			if strings.Contains(pers, "aof_fsync_count:0\r\n") {
				t.Fatalf("INFO persistence: no fsyncs recorded:\n%s", pers)
			}
			cli := string(rc.do("INFO", "clients").([]byte))
			if !strings.Contains(cli, "connected_clients:1") || !strings.Contains(cli, "rejected_connections:0") {
				t.Fatalf("INFO clients:\n%s", cli)
			}
			// The default INFO carries replication+persistence+clients but
			// not the stats sections.
			def := string(rc.do("INFO").([]byte))
			for _, want := range []string{"# Replication", "# Persistence", "# Clients"} {
				if !strings.Contains(def, want) {
					t.Fatalf("default INFO missing %q:\n%s", want, def)
				}
			}
			if strings.Contains(def, "# Commandstats") {
				t.Fatal("default INFO should not include commandstats")
			}

			if n := rc.do("LATENCY", "RESET").(int64); n == 0 {
				t.Fatal("LATENCY RESET reset nothing")
			}
			if after := rc.do("LATENCY", "HISTOGRAM", "zadd").([]interface{}); len(after) == 2 {
				if det := after[1].([]interface{}); det[1].(int64) != 0 {
					t.Fatalf("zadd samples after LATENCY RESET = %v", det[1])
				}
			}
		})
	}
}

func TestMaxConns(t *testing.T) {
	srv := NewServerExec(func(c int) index.Index { return skiplist.New(1) }, 64, ExecSerial)
	srv.SetMaxConns(2)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// Two connections PING (the round trip proves serve() started, so the
	// cap sees them); the third must be refused with the Redis error.
	c1 := dialRaw(t, addr)
	c2 := dialRaw(t, addr)
	if v := c1.do("PING"); v != "PONG" {
		t.Fatalf("PING = %v", v)
	}
	if v := c2.do("PING"); v != "PONG" {
		t.Fatalf("PING = %v", v)
	}
	over, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	buf := make([]byte, 256)
	over.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := over.Read(buf)
	if err != nil {
		t.Fatalf("read refusal: %v", err)
	}
	if got := string(buf[:n]); got != "-ERR max number of clients reached\r\n" {
		t.Fatalf("refusal = %q", got)
	}
	if _, err := over.Read(buf); err == nil {
		t.Fatal("over-cap connection not closed")
	}

	cli := string(c1.do("INFO", "clients").([]byte))
	if !strings.Contains(cli, "connected_clients:2") ||
		!strings.Contains(cli, "maxclients:2") ||
		!strings.Contains(cli, "rejected_connections:1") {
		t.Fatalf("INFO clients after rejection:\n%s", cli)
	}

	// Closing one connection frees a slot; the decrement runs on serve's
	// exit, so poll until a fresh dial survives.
	c2.c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := c.Write([]byte("PING\r\n")); err == nil {
			n, rerr := c.Read(buf)
			if rerr == nil && string(buf[:n]) == "+PONG\r\n" {
				c.Close()
				return
			}
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after closing a connection")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
