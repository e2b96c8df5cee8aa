package main

// A minimal pipelining RESP client. The benchmark owns it so that a change
// to internal/resp or miniredis.Client moves the server and never the
// ruler.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// requestTimeout is the per-request deadline: a hung server fails the
// request (and the rest of the worker's ops); it never hangs the run.
const requestTimeout = 10 * time.Second

// reply is one decoded RESP value; its slices are reused by the next read.
type reply struct {
	kind byte // '+', '-', ':', '$' (null when b == nil), '*'
	n    int64
	b    []byte
	arr  []reply
}

type respConn struct {
	c    net.Conn
	br   *bufio.Reader
	wbuf []byte
	// tee, when set, receives every byte read from the socket — the
	// recorded replies the resp-layer replays decode again.
	tee *bytes.Buffer
}

func dialResp(addr string) (*respConn, error) {
	c, err := net.DialTimeout("tcp", addr, requestTimeout)
	if err != nil {
		return nil, err
	}
	rc := &respConn{c: c}
	rc.br = bufio.NewReaderSize(rc, 64<<10)
	return rc, nil
}

// Read lets the bufio.Reader pull from the socket through the tee.
func (rc *respConn) Read(p []byte) (int, error) {
	n, err := rc.c.Read(p)
	if rc.tee != nil {
		rc.tee.Write(p[:n])
	}
	return n, err
}

func (rc *respConn) close() { rc.c.Close() }

// queue appends one command to the pending pipeline.
func (rc *respConn) queue(args ...[]byte) {
	b := append(rc.wbuf, '*')
	b = strconv.AppendInt(b, int64(len(args)), 10)
	b = append(b, '\r', '\n')
	for _, a := range args {
		b = append(b, '$')
		b = strconv.AppendInt(b, int64(len(a)), 10)
		b = append(b, '\r', '\n')
		b = append(b, a...)
		b = append(b, '\r', '\n')
	}
	rc.wbuf = b
}

// send writes the pending pipeline under the request deadline.
func (rc *respConn) send() error {
	if err := rc.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return err
	}
	_, err := rc.c.Write(rc.wbuf)
	rc.wbuf = rc.wbuf[:0]
	return err
}

// awaitFirstByte blocks until the first reply byte is buffered: the end of
// the client's wait span.
func (rc *respConn) awaitFirstByte() error {
	_, err := rc.br.Peek(1)
	return err
}

var errProtocol = errors.New("benchmark: malformed RESP reply")

func (rc *respConn) read(r *reply) error { return readReply(rc.br, r) }

// readReply decodes one RESP value from br into r, reusing r's buffers.
func readReply(br *bufio.Reader, r *reply) error {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return errProtocol
	}
	r.kind, r.n, r.b, r.arr = line[0], 0, r.b[:0], r.arr[:0]
	body := line[1 : len(line)-2]
	switch r.kind {
	case '+', '-':
		r.b = append(r.b, body...)
	case ':':
		r.n, err = strconv.ParseInt(string(body), 10, 64)
	case '$':
		n, perr := strconv.Atoi(string(body))
		if perr != nil {
			return errProtocol
		}
		if n < 0 {
			r.b = nil
			return nil
		}
		if cap(r.b) < n+2 {
			r.b = make([]byte, 0, n+2)
		}
		r.b = r.b[:n+2]
		if _, err = io.ReadFull(br, r.b); err == nil {
			r.b = r.b[:n]
		}
	case '*':
		n, perr := strconv.Atoi(string(body))
		if perr != nil {
			return errProtocol
		}
		for i := 0; i < n; i++ {
			if cap(r.arr) > i {
				r.arr = r.arr[:i+1] // reuse the element and its buffers
			} else {
				r.arr = append(r.arr, reply{})
			}
			if err = readReply(br, &r.arr[i]); err != nil {
				return err
			}
		}
	default:
		return errProtocol
	}
	return err
}

// do sends one command and reads its reply: for set-up, INFO and checks.
func (rc *respConn) do(args ...string) (*reply, error) {
	bs := make([][]byte, len(args))
	for i, a := range args {
		bs[i] = []byte(a)
	}
	rc.queue(bs...)
	if err := rc.send(); err != nil {
		return nil, err
	}
	r := &reply{}
	if err := rc.read(r); err != nil {
		return nil, err
	}
	if r.kind == '-' {
		return nil, fmt.Errorf("%s: server error: %s", args[0], r.b)
	}
	return r, nil
}

func (rc *respConn) doInt(args ...string) (int64, error) {
	r, err := rc.do(args...)
	if err != nil {
		return 0, err
	}
	if r.kind != ':' {
		return 0, fmt.Errorf("%s: want integer reply, got %q", args[0], r.kind)
	}
	return r.n, nil
}
