package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/miniredis"
)

// buildCtredis compiles the ctredis binary once per test run.
func buildCtredis(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ctredis")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startCtredis launches the binary and parses the bound address from its
// "ctredis listening on <addr>" banner.
func startCtredis(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	deadline := time.After(30 * time.Second)
	addrCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "ctredis listening on "); ok {
				addrCh <- strings.Fields(rest)[0]
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr
	case <-deadline:
		cmd.Process.Kill()
		t.Fatal("ctredis did not print its listen banner")
		return nil, ""
	}
}

// TestCrashRecoverySmoke is the end-to-end crash drill CI runs: start a
// persistent ctredis, write through the real RESP path with -fsync always,
// kill the process with SIGKILL (no shutdown path runs — whatever is on
// disk is all recovery gets), restart on the same directory, and DBSIZE
// must report every acknowledged write.
func TestCrashRecoverySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real server process")
	}
	bin := buildCtredis(t)
	dir := t.TempDir()

	cmd, addr := startCtredis(t, bin, "-data-dir", dir, "-fsync", "always")
	cl, err := miniredis.Dial(addr)
	if err != nil {
		cmd.Process.Kill()
		t.Fatal(err)
	}
	const writes = 500
	for i := 0; i < writes; i++ {
		r, err := cl.Do([]byte("ZADD"), []byte(fmt.Sprintf("set%d", i%8)),
			[]byte(fmt.Sprintf("m%05d", i)), []byte(fmt.Sprint(i)))
		if err != nil || r != int64(1) {
			cmd.Process.Kill()
			t.Fatalf("ZADD #%d = %v, %v", i, r, err)
		}
	}
	cl.Close()
	// SIGKILL: the process gets no chance to flush or close anything.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	cmd2, addr2 := startCtredis(t, bin, "-data-dir", dir, "-fsync", "always")
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()
	cl2, err := miniredis.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	r, err := cl2.Do([]byte("DBSIZE"))
	if err != nil {
		t.Fatal(err)
	}
	if r != int64(writes) {
		t.Fatalf("DBSIZE after kill -9 + restart = %v, want %d (acknowledged fsync=always writes lost)", r, writes)
	}
	if r, _ := cl2.Do([]byte("ZSCORE"), []byte("set3"), []byte("m00123")); string(r.([]byte)) != "123" {
		t.Fatalf("recovered score = %v", r)
	}
	// And the recovered server keeps serving writes.
	if r, _ := cl2.Do([]byte("ZADD"), []byte("set0"), []byte("post-crash"), []byte("1")); r != int64(1) {
		t.Fatalf("post-recovery ZADD = %v", r)
	}
}

// TestGroupCommitCrashDrill: 500 PIPELINED writes under -fsync group, then
// SIGKILL. Group commit withholds a pipeline's replies until one fsync
// covers its last LSN, so every write the client saw acknowledged must be
// present after restart — the same contract as fsync=always, at batched
// cost.
func TestGroupCommitCrashDrill(t *testing.T) {
	groupCommitCrashDrill(t, "serial", 1)
}

// TestGroupCommitCrashDrillStripedConn runs the same drill with two
// connections pipelining concurrently under -exec striped-conn: concurrent
// appenders interleave their LSNs, but each connection's ack barrier still
// withholds its replies until the fsync covers its last write, so the
// durability contract is identical.
func TestGroupCommitCrashDrillStripedConn(t *testing.T) {
	groupCommitCrashDrill(t, "striped-conn", 2)
}

func groupCommitCrashDrill(t *testing.T, execMode string, conns int) {
	if testing.Short() {
		t.Skip("builds and kills a real server process")
	}
	bin := buildCtredis(t)
	dir := t.TempDir()

	cmd, addr := startCtredis(t, bin, "-data-dir", dir, "-fsync", "group", "-exec", execMode)
	const writes, pipeline = 500, 50
	perConn := writes / conns
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := miniredis.Dial(addr)
			if err != nil {
				errs[g] = err
				return
			}
			defer cl.Close()
			for base := g * perConn; base < (g+1)*perConn; base += pipeline {
				cmds := make([][][]byte, pipeline)
				for i := range cmds {
					n := base + i
					cmds[i] = [][]byte{[]byte("ZADD"), []byte(fmt.Sprintf("set%d", n%8)),
						[]byte(fmt.Sprintf("m%05d", n)), []byte(fmt.Sprint(n))}
				}
				out, err := cl.Pipeline(cmds)
				if err != nil || len(out) != pipeline {
					errs[g] = fmt.Errorf("pipeline at %d: %d replies, %v", base, len(out), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			cmd.Process.Kill()
			t.Fatal(err)
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	cmd2, addr2 := startCtredis(t, bin, "-data-dir", dir, "-fsync", "group", "-exec", execMode)
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()
	cl2, err := miniredis.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if r, err := cl2.Do([]byte("DBSIZE")); err != nil || r != int64(writes) {
		t.Fatalf("DBSIZE after kill -9 + restart = %v, %v, want %d (group-acked writes lost)", r, err, writes)
	}
	if r, _ := cl2.Do([]byte("ZSCORE"), []byte("set3"), []byte("m00123")); string(r.([]byte)) != "123" {
		t.Fatalf("recovered score = %v", r)
	}
}

// TestAsyncAckCrashDrill asserts async mode's WEAKER contract: replies come
// back before durability, so after a SIGKILL the store must hold at least
// everything at or below the last DurableLSN the client observed via INFO
// persistence — not necessarily every acknowledged write.
func TestAsyncAckCrashDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real server process")
	}
	bin := buildCtredis(t)
	dir := t.TempDir()

	cmd, addr := startCtredis(t, bin, "-data-dir", dir, "-fsync", "async")
	cl, err := miniredis.Dial(addr)
	if err != nil {
		cmd.Process.Kill()
		t.Fatal(err)
	}
	const writes = 500
	for i := 0; i < writes; i++ {
		// Unique members across one set: LSN i+1 is exactly write i, so the
		// durable watermark translates directly into a key count.
		r, err := cl.Do([]byte("ZADD"), []byte("s"), []byte(fmt.Sprintf("m%05d", i)), []byte(fmt.Sprint(i)))
		if err != nil || r != int64(1) {
			cmd.Process.Kill()
			t.Fatalf("ZADD #%d = %v, %v", i, r, err)
		}
	}
	info, err := cl.Do([]byte("INFO"), []byte("persistence"))
	if err != nil {
		cmd.Process.Kill()
		t.Fatal(err)
	}
	var durable int64 = -1
	for _, line := range strings.Split(string(info.([]byte)), "\r\n") {
		if rest, ok := strings.CutPrefix(line, "aof_durable_lsn:"); ok {
			fmt.Sscanf(rest, "%d", &durable)
		}
	}
	if durable < 0 {
		cmd.Process.Kill()
		t.Fatal("INFO persistence did not report aof_durable_lsn")
	}
	cl.Close()
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	cmd2, addr2 := startCtredis(t, bin, "-data-dir", dir, "-fsync", "async")
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()
	cl2, err := miniredis.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	r, err := cl2.Do([]byte("DBSIZE"))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.(int64); got < durable {
		t.Fatalf("DBSIZE after crash = %d, but DurableLSN promised ≥ %d records", got, durable)
	} else if got > int64(writes) {
		t.Fatalf("DBSIZE after crash = %d > %d writes ever made", got, writes)
	}
}

// TestReplicationCrashDrill is the replication drill CI runs: a persistent
// primary and a -replicaof read replica as separate processes, 500 writes
// each confirmed replicated with WAIT 1, then SIGKILL the primary — the
// replica must still serve every key on its own.
func TestReplicationCrashDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real server processes")
	}
	bin := buildCtredis(t)
	dir := t.TempDir()

	prim, paddr := startCtredis(t, bin, "-data-dir", dir, "-fsync", "no")
	defer func() {
		prim.Process.Kill()
		prim.Wait()
	}()
	rep, raddr := startCtredis(t, bin, "-replicaof", paddr)
	defer func() {
		rep.Process.Kill()
		rep.Wait()
	}()

	cl, err := miniredis.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	const writes = 500
	for i := 0; i < writes; i++ {
		r, err := cl.Do([]byte("ZADD"), []byte(fmt.Sprintf("set%d", i%8)),
			[]byte(fmt.Sprintf("m%05d", i)), []byte(fmt.Sprint(i)))
		if err != nil || r != int64(1) {
			t.Fatalf("ZADD #%d = %v, %v", i, r, err)
		}
	}
	if r, err := cl.Do([]byte("WAIT"), []byte("1"), []byte("30000")); err != nil || r != int64(1) {
		t.Fatalf("WAIT 1 = %v, %v", r, err)
	}
	cl.Close()

	// SIGKILL the primary: the replica keeps serving what it applied.
	if err := prim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	prim.Wait()

	rcl, err := miniredis.Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()
	if r, err := rcl.Do([]byte("DBSIZE")); err != nil || r != int64(writes) {
		t.Fatalf("replica DBSIZE after primary crash = %v, %v (want %d)", r, err, writes)
	}
	if r, err := rcl.Do([]byte("ZSCORE"), []byte("set3"), []byte("m00123")); err != nil || string(r.([]byte)) != "123" {
		t.Fatalf("replica ZSCORE = %v, %v", r, err)
	}
}
