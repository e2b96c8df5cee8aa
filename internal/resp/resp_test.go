package resp

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestCommandRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteCommand([]byte("ZADD"), []byte("key"), []byte("member with spaces"), []byte("42"))
	w.Flush()
	r := NewReader(&buf)
	cmd, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cmd) != 4 || string(cmd[0]) != "ZADD" || string(cmd[2]) != "member with spaces" {
		t.Fatalf("cmd = %q", cmd)
	}
}

func TestReplyKinds(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteSimple("OK")
	w.WriteInt(-7)
	w.WriteBulk([]byte("data"))
	w.WriteBulk(nil)
	w.WriteArrayHeader(2)
	w.WriteBulk([]byte("a"))
	w.WriteInt(1)
	w.WriteError("boom")
	w.Flush()
	r := NewReader(&buf)
	if v, _ := r.ReadReply(); v != "OK" {
		t.Fatalf("simple = %v", v)
	}
	if v, _ := r.ReadReply(); v != int64(-7) {
		t.Fatalf("int = %v", v)
	}
	if v, _ := r.ReadReply(); string(v.([]byte)) != "data" {
		t.Fatalf("bulk = %v", v)
	}
	if v, _ := r.ReadReply(); v.([]byte) != nil {
		t.Fatalf("null bulk = %v", v)
	}
	if v, _ := r.ReadReply(); len(v.([]interface{})) != 2 {
		t.Fatalf("array = %v", v)
	}
	if v, _ := r.ReadReply(); v.(error).Error() != "ERR boom" {
		t.Fatalf("error = %v", v)
	}
}

func TestBinarySafety(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	payload := []byte{0, 1, 2, '\r', '\n', 0xff}
	w.WriteCommand([]byte("SET"), payload)
	w.Flush()
	r := NewReader(&buf)
	cmd, err := r.ReadCommand()
	if err != nil || !bytes.Equal(cmd[1], payload) {
		t.Fatalf("binary payload mangled: %q, %v", cmd, err)
	}
}

func TestMalformedInput(t *testing.T) {
	for _, in := range []string{"*2\r\n$1\r\na\r\n", "*1\r\n$5\r\nab\r\n", "*x\r\n"} {
		r := NewReader(bytes.NewBufferString(in))
		if _, err := r.ReadCommand(); err == nil {
			t.Fatalf("no error for %q", in)
		}
	}
}

// TestCommandBuffered: ReadBufferedCommand returns a command only when the
// whole of it is buffered, reports malformed buffered input without
// blocking, and consumes nothing otherwise.
func TestCommandBuffered(t *testing.T) {
	mk := func(in string) *Reader {
		r := NewReader(bytes.NewBufferString(in))
		// Prime the bufio buffer so Buffered/Peek see the bytes.
		r.br.Peek(1)
		return r
	}
	complete := map[string]int{
		"*1\r\n$4\r\nPING\r\n":                         1,
		"*3\r\n$6\r\nZSCORE\r\n$1\r\ns\r\n$1\r\nm\r\n": 3,
		"PING\r\n":                 1, // inline
		"*1\r\n$4\r\nPING\r\nrest": 1, // complete + trailing partial
	}
	for in, argc := range complete {
		cmd, ok, err := mk(in).ReadBufferedCommand()
		if !ok || err != nil || len(cmd) != argc {
			t.Errorf("ReadBufferedCommand(%q) = %q, %v, %v; want %d args", in, cmd, ok, err, argc)
		}
	}
	for _, in := range []string{"*x\r\n", "*2\r\nnope\r\n"} { // malformed
		if _, ok, err := mk(in).ReadBufferedCommand(); ok || !errors.Is(err, ErrProtocol) {
			t.Errorf("ReadBufferedCommand(%q) = %v, %v; want ErrProtocol", in, ok, err)
		}
	}
	partial := []string{
		"",
		"*3\r\n",
		"*3\r\n$6\r\nZSC",
		"*3\r\n$6\r\nZSCORE\r\n$1\r\ns\r\n$1\r\n", // payload bytes missing
		"PING", // inline without newline
	}
	for _, in := range partial {
		r := mk(in)
		if _, ok, err := r.ReadBufferedCommand(); ok || err != nil || r.Buffered() != len(in) {
			t.Errorf("ReadBufferedCommand(%q) = %v, %v with %d bytes left; want nothing read",
				in, ok, err, r.Buffered())
		}
	}
	if _, ok, err := NewReader(bytes.NewBufferString("")).ReadBufferedCommand(); ok || err != nil {
		t.Error("ReadBufferedCommand on an unprimed empty reader returned a command or an error")
	}
}

// TestLengthCapRejected: declared lengths beyond the 1<<30 cap are protocol
// errors everywhere a peer can declare one — bulk payloads in commands,
// bulk and array headers in replies. The old parser accepted any int that
// fit in 31 bits and allocated the buffer up front, so "$2147483647" from
// an unauthenticated client reserved ~2 GB before a single payload byte
// arrived; the fixed parser must fail with ErrProtocol (not an io error
// after a doomed allocation-and-read).
func TestLengthCapRejected(t *testing.T) {
	huge := []string{"2147483647", "1073741825"} // > 1<<30
	for _, n := range huge {
		r := NewReader(strings.NewReader("*1\r\n$" + n + "\r\n"))
		if _, err := r.ReadCommand(); !errors.Is(err, ErrProtocol) {
			t.Errorf("command bulk $%s: err = %v, want ErrProtocol", n, err)
		}
		r = NewReader(strings.NewReader("$" + n + "\r\n"))
		if _, err := r.ReadReply(); !errors.Is(err, ErrProtocol) {
			t.Errorf("reply bulk $%s: err = %v, want ErrProtocol", n, err)
		}
		r = NewReader(strings.NewReader("*" + n + "\r\n"))
		if _, err := r.ReadReply(); !errors.Is(err, ErrProtocol) {
			t.Errorf("reply array *%s: err = %v, want ErrProtocol", n, err)
		}
	}
	// At the cap is still accepted as a length (the read then fails on the
	// missing payload, which is a different error) — the cap bounds
	// declared lengths, it does not shrink the protocol.
	r := NewReader(strings.NewReader("$1073741824\r\n"))
	if _, err := r.ReadReply(); errors.Is(err, ErrProtocol) {
		t.Errorf("reply bulk at cap: err = %v, want a read error, not ErrProtocol", err)
	}
	// Negative lengths other than -1 are malformed, not nulls.
	r = NewReader(strings.NewReader("$-2\r\n"))
	if _, err := r.ReadReply(); !errors.Is(err, ErrProtocol) {
		t.Errorf("reply bulk $-2: err = %v, want ErrProtocol", err)
	}
}

// TestNullBulkInCommandRejected: a $-1 element inside a command array must
// be a protocol error. The old readBulk mapped it to a nil slice, so
// "ZADD <nil> ..." flowed into the keyspace as a nil key — a value the
// store can never address again.
func TestNullBulkInCommandRejected(t *testing.T) {
	r := NewReader(strings.NewReader("*3\r\n$6\r\nZSCORE\r\n$-1\r\n$1\r\nm\r\n"))
	cmd, err := r.ReadCommand()
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("command with null bulk: cmd = %q, err = %v, want ErrProtocol", cmd, err)
	}
}

// TestAggregateParseErrorConsumesFrame: a malformed value inside an array
// reply must surface an error only after the whole aggregate frame is
// consumed, so the next ReadReply returns the NEXT top-level reply — the
// invariant pipelining clients rely on to drain past bad replies. A broken
// frame (unknown type byte) must instead report a non-frame-safe error.
func TestAggregateParseErrorConsumesFrame(t *testing.T) {
	r := NewReader(strings.NewReader("*3\r\n:1\r\n:bad\r\n:2\r\n:7\r\n"))
	if _, err := r.ReadReply(); err == nil {
		t.Fatal("array with malformed element reported no error")
	} else if !FrameSafe(err) {
		t.Fatalf("value-parse error %v not frame-safe", err)
	}
	v, err := r.ReadReply()
	if err != nil || v != int64(7) {
		t.Fatalf("reply after consumed aggregate = %v, %v; want 7", v, err)
	}
	// Framing errors are not frame-safe.
	r = NewReader(strings.NewReader("?junk\r\n"))
	if _, err := r.ReadReply(); err == nil || FrameSafe(err) {
		t.Fatalf("framing error = %v; want non-frame-safe error", err)
	}
}

// TestAggregateFramingErrorWins: when an aggregate holds BOTH a frame-safe
// element error and a later framing error, the framing error must be
// reported — the frame was not fully consumed, and labeling it frame-safe
// would let pipelining clients drain a desynchronized stream.
func TestAggregateFramingErrorWins(t *testing.T) {
	r := NewReader(strings.NewReader("*3\r\n:bad\r\n?junk\r\n:7\r\n"))
	if _, err := r.ReadReply(); err == nil {
		t.Fatal("array with framing error reported no error")
	} else if FrameSafe(err) {
		t.Fatalf("mid-frame abort %v reported as frame-safe", err)
	}
}
