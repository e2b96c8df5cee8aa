package main

// The ctredis child process: boot, readiness, resource readings from /proc,
// and teardown on every exit path.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cleanups run on every exit path — normal return, error, panic, SIGINT and
// SIGTERM — so no child process or temp data dir outlives the benchmark.
var cleanups struct {
	mu  sync.Mutex
	fns []func()
}

func atExit(fn func()) {
	cleanups.mu.Lock()
	cleanups.fns = append(cleanups.fns, fn)
	cleanups.mu.Unlock()
}

func runCleanups() {
	cleanups.mu.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// cleanupOnSignal turns SIGINT/SIGTERM into cleanup + a non-zero exit.
func cleanupOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		runCleanups()
		os.Exit(130)
	}()
}

const bootTimeout = 60 * time.Second

type child struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	once   sync.Once
	drain  chan struct{} // closed when the stdout reader has exited
}

// startCtredis boots bin on a kernel-chosen loopback port, learns the port
// from the "listening on" banner, and returns once PING answers PONG.
func startCtredis(bin string, args ...string) (*child, error) {
	c := &child{drain: make(chan struct{})}
	c.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	c.cmd.Stderr = &c.stderr
	// The kernel kills the child if the benchmark dies without running its
	// cleanups (SIGKILL, a panic on a goroutine main cannot recover).
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	atExit(c.kill)
	addrCh := make(chan string, 1)
	go func() {
		defer close(c.drain)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
		io.Copy(io.Discard, out)
	}()
	select {
	case c.addr = <-addrCh:
	case <-c.drain:
		c.kill()
		return nil, fmt.Errorf("ctredis exited before listening: %s", c.stderr.String())
	case <-time.After(bootTimeout):
		c.kill()
		return nil, fmt.Errorf("ctredis printed no listen address within %v: %s", bootTimeout, c.stderr.String())
	}
	rc, err := dialResp(c.addr)
	if err != nil {
		c.kill()
		return nil, err
	}
	defer rc.close()
	if r, err := rc.do("PING"); err != nil || string(r.b) != "PONG" {
		c.kill()
		return nil, fmt.Errorf("ctredis did not answer PING: %v", err)
	}
	return c, nil
}

// kill SIGKILLs the child — no shutdown path runs, which is what the
// durability check needs — and waits until it has ended.
func (c *child) kill() {
	c.once.Do(func() {
		c.cmd.Process.Kill()
		<-c.drain
		c.cmd.Wait()
	})
}

// userHZ is the unit of /proc/<pid>/stat times; it is 100 on every Linux
// architecture Go supports.
const userHZ = 100

// cpuSeconds is the child's user+system CPU time so far.
func (c *child) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised comm: state is field 3, utime 14, stime 15.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat format")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat times")
	}
	return float64(ut+st) / userHZ, nil
}

// rssBytes is the child's resident set size (VmRSS).
func (c *child) rssBytes() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc status")
}

// selfCPUSeconds is this process's user+system CPU time (Getrusage), for
// the lib_* workloads where the index lives in the benchmark process.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
