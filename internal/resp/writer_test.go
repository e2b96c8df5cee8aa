package resp

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

var (
	encCmd  = [][]byte{[]byte("ZADD"), []byte(""), []byte("42")}
	encBulk = []byte("a\r\nb")
	encRaw  = []byte("raw")
)

// writeAll drives every Writer encoder once.
func writeAll(w *Writer) error {
	w.WriteCommand(encCmd...)
	w.WriteInt(-7)
	w.WriteBulkUint(math.MaxUint64)
	w.WriteBulkUint(0)
	w.WriteBulk(encBulk)
	w.WriteBulk(nil)
	w.WriteArrayHeader(2)
	w.WriteSimple("OK")
	w.WriteError("bo\r\nom")
	w.WriteErrorCode("READONLY no")
	w.WriteRaw(encRaw)
	return w.Flush()
}

// TestEncodingBytes pins the wire bytes of every encoder, both when it
// encodes straight into the buffer's free tail and when the buffer is too
// small for that and the length line goes through the writer's scratch.
func TestEncodingBytes(t *testing.T) {
	const want = "*3\r\n$4\r\nZADD\r\n$0\r\n\r\n$2\r\n42\r\n" +
		":-7\r\n" +
		"$20\r\n18446744073709551615\r\n" +
		"$1\r\n0\r\n" +
		"$4\r\na\r\nb\r\n" +
		"$-1\r\n" +
		"*2\r\n" +
		"+OK\r\n" +
		"-ERR bo  om\r\n" +
		"-READONLY no\r\n" +
		"raw"
	for _, size := range []int{16, 64 << 10} {
		var buf bytes.Buffer
		if err := writeAll(NewWriterSize(&buf, size)); err != nil {
			t.Fatal(err)
		}
		if buf.String() != want {
			t.Errorf("buffer %d: wrote %q, want %q", size, buf.String(), want)
		}
	}
}

// TestReplyLinesCannotForgeReplies: simple-string and error replies often
// echo client bytes (an unknown command's name, a bad subcommand). A CR or
// LF inside one used to end the reply early, so the client parsed the rest
// as forged replies and every later reply on the connection was off by
// one; now they become spaces and the stream stays in sync.
func TestReplyLinesCannotForgeReplies(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteError("unknown command 'X\r\n:1\r\n+OK'")
	w.WriteErrorCode("CODE a\nb")
	w.WriteSimple("x\ry")
	w.WriteInt(7)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for _, want := range []string{"ERR unknown command 'X  :1  +OK'", "CODE a b", "x y", "7"} {
		v, err := r.ReadReply()
		if err != nil {
			t.Fatalf("ReadReply: %v", err)
		}
		got := ""
		switch v := v.(type) {
		case error:
			got = v.Error()
		case string:
			got = v
		case int64:
			got = "7"
			if v != 7 {
				got = "wrong int"
			}
		}
		if got != want {
			t.Fatalf("reply = %#v, want %q", v, want)
		}
	}
	if _, err := r.ReadReply(); err != io.EOF {
		t.Fatalf("trailing bytes after the replies: %v", err)
	}
}

var errBroken = errors.New("broken pipe")

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errBroken }

// TestWriteCommandReportsWriteError: WriteCommand used to return nil
// unconditionally, so the replica's handshake and REPLCONF ACK checks
// tested nothing. A command that overflows the buffer into a failing
// writer reports the failure, and so does every later command.
func TestWriteCommandReportsWriteError(t *testing.T) {
	w := NewWriterSize(failWriter{}, 16)
	if err := w.WriteCommand([]byte("REPLCONF"), []byte("ACK"), []byte("12345")); !errors.Is(err, errBroken) {
		t.Fatalf("overflowing WriteCommand err = %v, want %v", err, errBroken)
	}
	if err := w.WriteCommand([]byte("PING")); !errors.Is(err, errBroken) {
		t.Fatalf("WriteCommand after a failed write err = %v, want the sticky %v", err, errBroken)
	}
	// A command that fits the buffer is only buffered; the failure is the
	// Flush's to report.
	w = NewWriterSize(failWriter{}, 64)
	if err := w.WriteCommand([]byte("PING")); err != nil {
		t.Fatalf("buffered WriteCommand err = %v", err)
	}
	if err := w.Flush(); !errors.Is(err, errBroken) {
		t.Fatalf("Flush err = %v, want %v", err, errBroken)
	}
}

// TestWriterZeroAlloc pins the encoders: none allocates, whether it encodes
// into the buffer's free tail or through the scratch.
func TestWriterZeroAlloc(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not pinned under -race")
	}
	for _, size := range []int{16, 16 << 10} {
		w := NewWriterSize(io.Discard, size)
		if a := testing.AllocsPerRun(100, func() { writeAll(w) }); a != 0 {
			t.Errorf("buffer %d: %v allocs per round of every encoder, want 0", size, a)
		}
	}
}
