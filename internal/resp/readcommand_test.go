package resp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"testing"
	"time"
)

// chunkReader delivers data in reads of at most size(i) bytes on the i-th
// read, the way a TCP stream splits a pipeline.
type chunkReader struct {
	data []byte
	size func(i int) int
	i    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.data[:min(len(c.data), max(1, c.size(c.i)))])
	c.i++
	c.data = c.data[n:]
	return n, nil
}

// drain reads r the way miniredis's serve loop does — one blocking
// ReadCommand, then ReadBufferedCommand while it finds commands — and
// copies each batch only after its drain has finished, so an argument that
// a later read of the same batch overwrote shows up as a mismatch. It
// returns the commands and the error that ended the stream (io.EOF for a
// clean end).
func drain(r *Reader) ([][][]byte, error) {
	var out [][][]byte
	for {
		cmd, err := r.ReadCommand()
		if err != nil {
			return out, err
		}
		batch := [][][]byte{cmd}
		for ok := true; ok; {
			if cmd, ok, err = r.ReadBufferedCommand(); ok {
				batch = append(batch, cmd)
			}
		}
		for _, c := range batch {
			cp := make([][]byte, len(c))
			for i, a := range c {
				cp[i] = append([]byte{}, a...)
			}
			out = append(out, cp)
		}
		if err != nil {
			return out, err
		}
	}
}

func sameCommands(a, b [][][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !bytes.Equal(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// refDecode is an independent whole-input decoder for the command grammar
// (the one the line-at-a-time reader implemented before commands were
// parsed in place): the reference FuzzReadCommand holds both Reader paths
// to. clean reports whether the input ended exactly at a command boundary.
func refDecode(data []byte) (cmds [][][]byte, clean bool) {
	line := func() ([]byte, bool) {
		i := bytes.IndexByte(data, '\n')
		if i < 1 || i > maxLine || data[i-1] != '\r' {
			return nil, false
		}
		l := data[:i-1]
		data = data[i+1:]
		return l, true
	}
	length := func(s []byte, limit uint64) (int, bool) {
		n, err := strconv.ParseUint(string(s), 10, 64)
		return int(n), err == nil && n <= limit
	}
	for len(data) > 0 {
		l, ok := line()
		if !ok || len(l) == 0 {
			return cmds, false
		}
		if l[0] != '*' {
			var cmd [][]byte
			for _, f := range bytes.Split(l, []byte{' '}) {
				if len(f) > 0 {
					cmd = append(cmd, f)
				}
			}
			if len(cmd) > maxArgs {
				return cmds, false
			}
			cmds = append(cmds, cmd)
			continue
		}
		argc, ok := length(l[1:], maxArgs)
		if !ok {
			return cmds, false
		}
		cmd := [][]byte{}
		for ; argc > 0; argc-- {
			h, ok := line()
			if !ok || len(h) == 0 || h[0] != '$' {
				return cmds, false
			}
			n, ok := length(h[1:], maxLen)
			if !ok || len(data) < n+2 || data[n] != '\r' || data[n+1] != '\n' {
				return cmds, false
			}
			cmd = append(cmd, data[:n])
			data = data[n+2:]
		}
		cmds = append(cmds, cmd)
	}
	return cmds, true
}

// FuzzReadCommand is the differential fuzz target for the command parser:
// the in-place path (whole input in a 64 KiB buffer) and the copying path
// (a 16-byte buffer, so nearly every command spills, fed in chunks chosen
// by the chunk seed) must both decode exactly what refDecode does and agree
// on whether the input ended cleanly.
func FuzzReadCommand(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, chunk byte) {
		want, clean := refDecode(data)
		inPlace := NewReaderSize(bytes.NewReader(data), 64<<10)
		copying := NewReaderSize(&chunkReader{data: data, size: func(i int) int {
			return 1 + (int(chunk)+7*i)%23
		}}, 16)
		for name, r := range map[string]*Reader{"in-place": inPlace, "copying": copying} {
			got, err := drain(r)
			if !sameCommands(got, want) {
				t.Fatalf("%s path decoded %q, want %q", name, got, want)
			}
			if (err == io.EOF) != clean {
				t.Fatalf("%s path ended with %v, reference clean end = %v", name, err, clean)
			}
		}
	})
}

// TestChunkedDelivery replays a recorded pipeline split at every byte
// offset and delivered in 1…64-byte chunks; every batch drained with
// ReadBufferedCommand must still hold the expected commands once its drain
// has finished. The pipeline covers binary payloads containing CRLF, *0,
// an empty argument, inline commands, and a command larger than the
// server's 16 KiB connection buffer.
func TestChunkedDelivery(t *testing.T) {
	const bufSize = 16 << 10
	big := bytes.Repeat([]byte("m\r\n"), bufSize/3+100)
	want := [][][]byte{
		{[]byte("ZADD"), []byte("s"), []byte("m1"), []byte("42")},
		{[]byte("ZSCORE"), []byte("s"), []byte("m1")},
		{[]byte("ZMSCORE"), []byte("s"), []byte("a"), []byte("b\r\nc"), {0, '\r', '\n', 0xff}},
		{},
		{[]byte("ZRANGEBYLEX"), []byte("s"), []byte(""), []byte("20")},
		{[]byte("ZADD"), []byte("s"), big, []byte("7")},
		{[]byte("PING")},
	}
	var stream bytes.Buffer
	w := NewWriter(&stream)
	for _, c := range want {
		if err := w.WriteCommand(c...); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	stream.WriteString("ZSCORE  s m1\r\n*1\r\n$4\r\nPING\r\n")
	want = append(want, [][]byte{[]byte("ZSCORE"), []byte("s"), []byte("m1")}, [][]byte{[]byte("PING")})
	data := stream.Bytes()

	check := func(how string, src io.Reader) {
		t.Helper()
		got, err := drain(NewReaderSize(src, bufSize))
		if err != io.EOF {
			t.Fatalf("%s: stream ended with %v, want io.EOF", how, err)
		}
		if !sameCommands(got, want) {
			t.Fatalf("%s: decoded commands differ from the recorded pipeline", how)
		}
	}
	for off := 0; off <= len(data); off++ {
		check(fmt.Sprintf("split at %d", off), &chunkReader{data: data, size: func(i int) int {
			if i == 0 {
				return off
			}
			return len(data)
		}})
	}
	for n := 1; n <= 64; n++ {
		check(fmt.Sprintf("%d-byte chunks", n), &chunkReader{data: data, size: func(int) int { return n }})
	}
}

// TestTruncatedCommand: a stream that ends mid-command is an error on both
// paths; only an end between commands is a clean io.EOF.
func TestTruncatedCommand(t *testing.T) {
	for _, in := range []string{"*2\r\n", "*1\r\n$4\r\nPI", "PING", "*1\r\n$40000\r\nab"} {
		for _, size := range []int{16, 64 << 10} {
			_, err := drain(NewReaderSize(bytes.NewBufferString("*1\r\n$4\r\nPING\r\n"+in), size))
			if err != io.ErrUnexpectedEOF {
				t.Errorf("%q (buffer %d): err = %v, want io.ErrUnexpectedEOF", in, size, err)
			}
		}
	}
}

// countReader counts the bytes it hands out.
type countReader struct {
	r io.Reader
	n int
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestLongLineRejected: a line whose LF does not come within maxLine bytes
// — an inline command, a '*' or a '$' header — is ErrProtocol once the cap
// is passed, without the rest of it being read; an inline command just
// under the cap still parses, through the spill, and leaves what follows
// it buffered. So does one over maxArgs arguments.
func TestLongLineRejected(t *testing.T) {
	const bufSize = 16 << 10
	long := bytes.Repeat([]byte("a"), 1<<20)
	for _, prefix := range []string{"", "*", "*1\r\n$"} {
		src := &countReader{r: bytes.NewReader(append([]byte(prefix), long...))}
		if _, err := NewReaderSize(src, bufSize).ReadCommand(); !errors.Is(err, ErrProtocol) {
			t.Errorf("%q + 1 MiB line: err = %v, want ErrProtocol", prefix, err)
		}
		if src.n > maxLine+2*bufSize {
			t.Errorf("%q + 1 MiB line: read %d bytes before refusing it", prefix, src.n)
		}
	}

	arg := bytes.Repeat([]byte("x"), 63)
	line := bytes.Repeat(append(arg, ' '), 1000) // 64000 bytes, under maxLine
	r := NewReaderSize(bytes.NewReader(append(line, "\r\nPING\r\n"...)), bufSize)
	cmd, err := r.ReadCommand()
	if err != nil || len(cmd) != 1000 || !bytes.Equal(cmd[999], arg) {
		t.Fatalf("64000-byte inline command: %d args, err %v", len(cmd), err)
	}
	if cmd, err := r.ReadCommand(); err != nil || len(cmd) != 1 || string(cmd[0]) != "PING" {
		t.Fatalf("command after the inline one: %q, %v", cmd, err)
	}

	tooMany := append(bytes.Repeat([]byte("a "), maxArgs+1), "\r\n"...)
	if _, err := NewReader(bytes.NewReader(tooMany)).ReadCommand(); !errors.Is(err, ErrProtocol) {
		t.Errorf("inline command of %d arguments: err = %v, want ErrProtocol", maxArgs+1, err)
	}
}

// TestSpillLinear: a command larger than the buffer costs time linear in
// its length. Its ~700 spilled arguments arrive as a header line and a
// payload each; a parse that rescanned the gathered prefix at every step
// made it cost thousands of times its in-place parse.
func TestSpillLinear(t *testing.T) {
	args := make([][]byte, maxArgs)
	for i := range args {
		args[i] = []byte(fmt.Sprintf("member:%040d", i))
	}
	var stream bytes.Buffer
	w := NewWriter(&stream)
	if err := w.WriteCommand(args...); err != nil || w.Flush() != nil || stream.Len() > 64<<10 {
		t.Fatalf("encoding: %d bytes, err %v", stream.Len(), err)
	}
	fastest := func(size int) time.Duration {
		best := time.Hour
		for i := 0; i < 5; i++ {
			r := NewReaderSize(bytes.NewReader(stream.Bytes()), size)
			start := time.Now()
			cmd, err := r.ReadCommand()
			best = min(best, time.Since(start))
			if err != nil || !sameCommands([][][]byte{cmd}, [][][]byte{args}) {
				t.Fatalf("buffer %d: decoded %d args, err %v", size, len(cmd), err)
			}
		}
		return best
	}
	inPlace, spilled := fastest(64<<10), fastest(16<<10)
	if spilled > 50*inPlace {
		t.Errorf("%d-argument command: %v through the spill, %v in place", maxArgs, spilled, inPlace)
	}
}

// TestSpillReleased: the spill a large command grew is dropped at the next
// refill, when the command's borrow ends, so one large command does not
// pin its size for the reader's lifetime.
func TestSpillReleased(t *testing.T) {
	var stream bytes.Buffer
	w := NewWriter(&stream)
	w.WriteCommand([]byte("ZADD"), []byte("s"), bytes.Repeat([]byte("m"), 1<<20), []byte("1"))
	w.WriteCommand([]byte("PING"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReaderSize(&chunkReader{data: stream.Bytes(), size: func(int) int { return 4096 }}, 16<<10)
	if cmd, err := r.ReadCommand(); err != nil || len(cmd) != 4 || len(cmd[2]) != 1<<20 {
		t.Fatalf("large command: %d args, err %v", len(cmd), err)
	}
	if cap(r.spill) < 1<<20 {
		t.Fatalf("large command was not spilled (spill cap %d)", cap(r.spill))
	}
	if cmd, err := r.ReadCommand(); err != nil || string(cmd[0]) != "PING" {
		t.Fatalf("next command: %q, %v", cmd, err)
	}
	if _, err := r.ReadCommand(); err != io.EOF {
		t.Fatalf("end of stream: %v", err)
	}
	if r.spill != nil {
		t.Errorf("spill of cap %d kept past the refill", cap(r.spill))
	}
}

// loopReader hands out the same pipeline on every Read, like a client that
// sends it again after each round of replies.
type loopReader []byte

func (l loopReader) Read(p []byte) (int, error) { return copy(p, l), nil }

// TestReadCommandZeroAlloc pins the in-place parse: draining a buffered
// 32-deep pipeline, refill included, allocates nothing once the argument
// arena has grown.
func TestReadCommandZeroAlloc(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not pinned under -race")
	}
	var pipe bytes.Buffer
	w := NewWriter(&pipe)
	for i := 0; i < 32; i++ {
		w.WriteCommand([]byte("ZSCORE"), []byte("set"), []byte("member:"+strconv.Itoa(i)))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReaderSize(loopReader(pipe.Bytes()), 16<<10)
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.ReadCommand(); err != nil {
			t.Fatal(err)
		}
		n++
		for {
			_, ok, err := r.ReadBufferedCommand()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
	})
	if n != 101*32 {
		t.Fatalf("read %d commands, want %d", n, 101*32)
	}
	if allocs != 0 {
		t.Errorf("ReadCommand: %v allocs per 32-command pipeline, want 0", allocs)
	}
}
