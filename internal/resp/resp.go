// Package resp implements the RESP2 wire protocol (the Redis serialization
// protocol) used by the full-system benchmark (§6.8): enough of the protocol
// to run YCSB-style workloads against the mini-Redis server over loopback
// TCP with pipelining.
//
// The server side allocates nothing per command: ReadCommand parses a
// buffered command in place and lends out arguments that alias the read
// buffer (see its lifetime rule), and every Writer encoder appends into the
// write buffer's free tail.
package resp

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strconv"
	"strings"
)

// ErrProtocol reports malformed input.
var ErrProtocol = errors.New("resp: protocol error")

// Reader decodes RESP values.
type Reader struct {
	br *bufio.Reader
	// args is the argument-header arena: every command ReadCommand returns
	// is a window of it, so a drained pipeline costs no allocation. It is
	// recycled at each refill, the point where the bytes its headers alias
	// may move, so it holds at most the arguments of one buffer's worth of
	// commands plus one spilled command (maxArgs).
	args [][]byte
	// spill gathers a command too large for br's buffer. One grown past the
	// buffer size is dropped at the next refill, when its borrow ends.
	spill []byte
}

// NewReader wraps r with the default 64 KiB buffer.
func NewReader(r io.Reader) *Reader { return &Reader{br: bufio.NewReaderSize(r, 64<<10)} }

// NewReaderSize wraps r with an explicit buffer size. A many-connection
// server sizes per-connection buffers down (a pipeline batch fits in a few
// KiB); clients and replication feeds keep the large default.
func NewReaderSize(r io.Reader, size int) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, size)}
}

// Inner exposes the underlying buffered reader. Replication needs it: a
// PSYNC handshake runs over RESP, then the same connection switches to a
// raw frame stream — which must continue from this buffer, or bytes the
// RESP reader already pulled in would be lost.
func (r *Reader) Inner() *bufio.Reader { return r.br }

// Buffered reports how many decoded-but-unread bytes sit in the reader's
// buffer — nonzero when the client has pipelined further commands behind the
// one just read.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// ReadBufferedCommand is ReadCommand that never blocks: it returns the next
// command (ok) only when the whole of it is already buffered, and otherwise
// reads nothing. This is what lets a server drain a pipeline into one batch
// without withholding replies from a client that has only sent part of its
// next command: Buffered() alone counts raw bytes and would be nonzero for
// a half-received command. Malformed buffered input returns its error. It
// never refills, so arguments already returned stay valid across it.
func (r *Reader) ReadBufferedCommand() (cmd [][]byte, ok bool, err error) {
	var p cmdProgress
	cmd, need, err := r.parseBuffered(&p)
	return cmd, need == 0 && err == nil, err
}

// maxLen caps any length prefix a peer can declare ($n bulk payloads and
// *n reply arrays): without it a client sending "$2147483647" forces a
// ~2 GB allocation before a single payload byte arrives. Lengths beyond
// the cap are protocol errors, not values to be honored.
const maxLen = 1 << 30

// maxArgs caps a command's argument count, declared or inline.
const maxArgs = 1024

// maxLine caps a command line — an inline command or a '*'/'$' header —
// as Redis caps inline requests at 64 KiB: a peer that never sends LF gets
// ErrProtocol, not an ever-growing spill that every read rescans.
const maxLine = 64 << 10

// parseLen parses a RESP length prefix (the digits after '$' or '*'): a
// non-negative decimal capped at maxLen, or exactly "-1" (the null
// marker), which returns -1. Anything else — other negatives, garbage,
// overflow — is ErrProtocol.
func parseLen(b []byte) (int, error) {
	if len(b) == 2 && b[0] == '-' && b[1] == '1' {
		return -1, nil
	}
	if len(b) == 0 {
		return 0, ErrProtocol
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, ErrProtocol
		}
		n = n*10 + int(c-'0')
		if n > maxLen {
			return 0, ErrProtocol
		}
	}
	return n, nil
}

// ReadCommand reads a client command: an array of bulk strings, or an
// inline (space-separated) line, which is supported for debugging.
//
// The returned arguments are borrowed: they alias the reader's buffer and
// stay valid until the next ReadCommand that finds no complete command
// buffered (the one that has to refill), or until any other read from the
// Reader or its Inner buffer. Draining a batch with ReadBufferedCommand
// therefore keeps the whole batch intact; a caller that retains an argument
// beyond that must copy it.
func (r *Reader) ReadCommand() ([][]byte, error) {
	var p cmdProgress
	cmd, need, err := r.parseBuffered(&p)
	if need == 0 || err != nil {
		return cmd, err
	}
	// Only a prefix is buffered. Reading more may slide the buffer under the
	// arguments lent out since the last refill, which ends their lifetime:
	// recycle their headers, and drop a spill one large command grew.
	clear(r.args) // no stale header may pin an old spill
	r.args = r.args[:0]
	if cap(r.spill) > r.br.Size() {
		r.spill = nil
	}
	for need <= r.br.Size() {
		if got, err := r.br.Peek(need); err != nil {
			// Fewer than need bytes can never be a whole command.
			return nil, truncated(len(got), err)
		}
		if cmd, need, err = r.parseBuffered(&p); need == 0 || err != nil {
			return cmd, err
		}
	}
	return r.readSpill(need, p)
}

// parseBuffered parses the command at the front of the buffer, resuming at
// p, and consumes it when it is complete. need > 0 means only a prefix is
// buffered: the command is at least need bytes long.
func (r *Reader) parseBuffered(p *cmdProgress) (cmd [][]byte, need int, err error) {
	buf, _ := r.br.Peek(r.br.Buffered())
	resumed, base := p.pos > 0, len(r.args)
	args, n, need, err := parseCommand(buf, r.args, p)
	if n == 0 {
		r.args = args // args[:base], keeping any arena growth
		return nil, need, err
	}
	if resumed {
		// The arguments before p came from bytes a refill may have moved.
		args, _, _, _ = parseCommand(buf, r.args, &cmdProgress{})
	}
	r.br.Discard(n) // n ≤ Buffered(): no read, cannot fail
	r.args = args
	return args[base:len(args):len(args)], 0, nil
}

// readSpill gathers a command larger than the buffer, known to be at least
// need bytes long and parsed up to p, into the spill slice. Only bytes the
// command is known to span move, so whatever follows it stays buffered for
// the next call, and each parse resumes at p: the work is linear in the
// command's length however it arrives.
func (r *Reader) readSpill(need int, p cmdProgress) ([][]byte, error) {
	r.spill = r.spill[:0]
	for {
		buf, _ := r.br.Peek(r.br.Buffered())
		take := min(need-len(r.spill), len(buf))
		if need == len(r.spill)+1 {
			// An unfinished line: every byte up to its LF belongs to the
			// command. (A bulk payload one byte short lacks only its LF.)
			if take = bytes.IndexByte(buf, '\n') + 1; take == 0 {
				take = len(buf)
			}
		}
		if take == 0 {
			if _, err := r.br.Peek(1); err != nil {
				return nil, truncated(len(r.spill), err)
			}
			continue
		}
		r.spill = append(r.spill, buf[:take]...)
		r.br.Discard(take)
		args, n, next, err := parseCommand(r.spill, r.args[:0], &p)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			// Only the arguments after the last resume point are in args.
			r.args, _, _, _ = parseCommand(r.spill, args[:0], &cmdProgress{})
			return r.args[:len(r.args):len(r.args)], nil
		}
		r.args, need = args, next
	}
}

// truncated classifies a read that ended after only got bytes of a
// command: a clean EOF between commands stays io.EOF, one mid-command is
// io.ErrUnexpectedEOF, and transport errors pass through.
func truncated(got int, err error) error {
	if err == io.EOF && got > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
}

// cmdProgress is how far parseCommand got through a command that is not
// yet complete, so the next attempt resumes there instead of rescanning
// from the start. Offsets count from the command's first byte, so they hold
// wherever its bytes move (a buffer slide, a copy into the spill).
type cmdProgress struct {
	pos int // offset just past the array header and the complete arguments; 0 before the header
	rem int // arguments still to parse after pos
}

// parseCommand parses the command at the front of b, resuming at p,
// appending the arguments it parses to args as subslices of b,
// capacity-capped so that no caller append can reach the bytes after them.
// It returns the extended args and the command's length in b. A nil error
// with n == 0 means b holds only a prefix of a command at least need
// (> len(b)) bytes long; args is then back at its length on entry and p
// records the progress. A resumed parse appends only the arguments after p.
func parseCommand(b []byte, args [][]byte, p *cmdProgress) (out [][]byte, n, need int, err error) {
	base := len(args)
	if p.pos == 0 {
		line, pos, err := cutLine(b, 0)
		switch {
		case err != nil:
			return args, 0, 0, err
		case pos == 0:
			return args, 0, len(b) + 1, nil
		case len(line) == 0:
			return args, 0, 0, ErrProtocol
		}
		if line[0] != '*' {
			for i := 0; i < len(line); {
				if line[i] == ' ' {
					i++
					continue
				}
				j := i
				for j < len(line) && line[j] != ' ' {
					j++
				}
				if len(args)-base == maxArgs {
					return args[:base], 0, 0, ErrProtocol
				}
				args = append(args, line[i:j:j])
				i = j
			}
			return args, pos, 0, nil
		}
		argc, err := parseLen(line[1:])
		if err != nil || argc < 0 || argc > maxArgs {
			return args, 0, 0, ErrProtocol
		}
		*p = cmdProgress{pos: pos, rem: argc}
	}
	for ; p.rem > 0; p.rem-- {
		hdr, start, err := cutLine(b, p.pos)
		switch {
		case err != nil:
			return args[:base], 0, 0, err
		case start == 0:
			return args[:base], 0, len(b) + 1, nil
		case len(hdr) == 0 || hdr[0] != '$':
			return args[:base], 0, 0, ErrProtocol
		}
		// A null bulk ($-1) is refused: inside a command a nil argument has
		// no meaning — it would flow into the store as a nil key — and real
		// Redis refuses it too.
		ln, err := parseLen(hdr[1:])
		if err != nil || ln < 0 {
			return args[:base], 0, 0, ErrProtocol
		}
		end := start + ln
		if end+2 > len(b) {
			return args[:base], 0, end + 2, nil
		}
		if b[end] != '\r' || b[end+1] != '\n' {
			return args[:base], 0, 0, ErrProtocol
		}
		args = append(args, b[start:end:end])
		p.pos = end + 2
	}
	return args, p.pos, 0, nil
}

// cutLine finds the CRLF-terminated line starting at b[from:]. It returns
// the line without its terminator and the offset just past it; next is 0
// while the line is incomplete. A bare LF, or a line whose LF would come
// more than maxLine bytes in, is ErrProtocol.
func cutLine(b []byte, from int) (line []byte, next int, err error) {
	i := bytes.IndexByte(b[from:min(len(b), from+maxLine+1)], '\n')
	if i < 0 {
		if len(b)-from > maxLine {
			return nil, 0, ErrProtocol
		}
		return nil, 0, nil
	}
	end := from + i
	if i == 0 || b[end-1] != '\r' {
		return nil, 0, ErrProtocol
	}
	return b[from : end-1], end + 1, nil
}

func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, ErrProtocol
	}
	return line[:len(line)-2], nil
}

// ReadReply reads one server reply, returning it as one of:
// string (simple), error, int64, []byte (bulk, nil for null), or
// []interface{} (array).
func (r *Reader) ReadReply() (interface{}, error) {
	line, err := r.readLine()
	if err != nil {
		return nil, err
	}
	if len(line) == 0 {
		return nil, ErrProtocol
	}
	switch line[0] {
	case '+':
		return string(line[1:]), nil
	case '-':
		return errors.New(string(line[1:])), nil
	case ':':
		return strconv.ParseInt(string(line[1:]), 10, 64)
	case '$':
		n, err := parseLen(line[1:])
		if err != nil {
			return nil, ErrProtocol
		}
		if n < 0 {
			return []byte(nil), nil
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(r.br, buf); err != nil {
			return nil, err
		}
		return buf[:n], nil
	case '*':
		n, err := parseLen(line[1:])
		if err != nil {
			return nil, ErrProtocol
		}
		if n < 0 {
			return []interface{}(nil), nil
		}
		// Pre-size from the declared count, but bounded: the count is
		// peer-controlled and each slot is an interface header, so honoring
		// a huge n would allocate gigabytes before any element arrives.
		out := make([]interface{}, 0, min(n, 1024))
		var firstErr error
		for i := 0; i < n; i++ {
			v, err := r.ReadReply()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				if FrameSafe(err) {
					// The malformed element's bytes were consumed: keep
					// reading the remaining elements so the whole aggregate
					// frame is consumed and the stream stays in sync.
					continue
				}
				// A framing/transport error aborts mid-frame; it must win
				// over an earlier frame-safe element error or callers would
				// wrongly treat the stream as still in sync.
				return nil, err
			}
			out = append(out, v)
		}
		if firstErr != nil {
			return nil, firstErr
		}
		return out, nil
	}
	return nil, ErrProtocol
}

// FrameSafe reports whether a ReadReply error left the stream at a reply
// frame boundary — the malformed value's bytes were fully consumed, so the
// next read starts at the next reply and pipelining clients can safely
// drain past the error. Value-parse errors (an unparsable integer in a
// fully-read line) are frame-safe; ErrProtocol and transport errors are
// not: after them the reader's position within the stream is unknown.
func FrameSafe(err error) bool {
	var ne *strconv.NumError
	return errors.As(err, &ne)
}

// Writer encodes RESP values with buffering; call Flush after a pipeline.
// Encoders append into the buffer's free tail and never allocate; a write
// error is sticky and surfaces at Flush.
type Writer struct {
	bw *bufio.Writer
	// errs counts error replies encoded through WriteError/WriteErrorCode.
	// A server observing per-command error counters reads it before and
	// after a handler: the delta says whether that command errored without
	// the handler having to report its outcome through a second channel.
	// Plain (not atomic): a Writer is owned by one goroutine at a time.
	errs uint64
	// scratch holds one encoded length line when the buffer's free tail is
	// shorter. Encoding there, not flushing to make room, means replies
	// reach the connection no earlier than bufio's own overflow would send
	// them: serve's group-commit barrier withholds buffered acks until
	// their fsync.
	scratch [32]byte
}

// NewWriter wraps w with the default 64 KiB buffer.
func NewWriter(w io.Writer) *Writer { return &Writer{bw: bufio.NewWriterSize(w, 64<<10)} }

// NewWriterSize wraps w with an explicit buffer size (see NewReaderSize).
func NewWriterSize(w io.Writer, size int) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, size)}
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }

// head returns an empty slice with room for one length line (at most
// len(scratch) bytes): the buffer's free tail when it is long enough, so
// the encoder's Write copies nothing, else the scratch array.
func (w *Writer) head() []byte {
	if b := w.bw.AvailableBuffer(); cap(b) >= len(w.scratch) {
		return b
	}
	return w.scratch[:0]
}

// writeLen writes a type byte, a decimal and CRLF: ":7\r\n", "$5\r\n",
// "*3\r\n".
func (w *Writer) writeLen(kind byte, n int64) error {
	b := append(w.head(), kind)
	b = strconv.AppendInt(b, n, 10)
	_, err := w.bw.Write(append(b, '\r', '\n'))
	return err
}

// writeLine writes a simple-string or error line. Every CR and LF in s
// becomes a space, as Redis's addReplyErrorLength does: s often echoes
// client bytes, and a line break inside it would end the reply early and
// let the rest parse as forged replies.
func (w *Writer) writeLine(prefix, s string) {
	w.bw.WriteString(prefix)
	for {
		i := strings.IndexAny(s, "\r\n")
		if i < 0 {
			break
		}
		w.bw.WriteString(s[:i])
		w.bw.WriteByte(' ')
		s = s[i+1:]
	}
	w.bw.WriteString(s)
	w.bw.WriteString("\r\n")
}

// WriteCommand encodes a command as an array of bulk strings. It returns
// the first error the buffered writes met (bufio errors are sticky, so the
// last write reports it); nil means the command is buffered, not sent.
func (w *Writer) WriteCommand(args ...[]byte) error {
	err := w.writeLen('*', int64(len(args)))
	for _, a := range args {
		w.writeLen('$', int64(len(a)))
		w.bw.Write(a)
		_, err = w.bw.WriteString("\r\n")
	}
	return err
}

// WriteRaw writes raw bytes through the writer's buffer — the escape hatch
// a replication feed uses to ship WAL record frames on a connection whose
// handshake ran over RESP.
func (w *Writer) WriteRaw(b []byte) error {
	_, err := w.bw.Write(b)
	return err
}

// WriteSimple writes a +OK style reply; CR/LF in s become spaces.
func (w *Writer) WriteSimple(s string) { w.writeLine("+", s) }

// WriteError writes an -ERR reply; CR/LF in s become spaces.
func (w *Writer) WriteError(s string) {
	w.errs++
	w.writeLine("-ERR ", s)
}

// WriteErrorCode writes an error reply whose leading word is an explicit
// error code (e.g. "READONLY ...", "NOPERM ..."), not the generic ERR;
// CR/LF in s become spaces.
func (w *Writer) WriteErrorCode(s string) {
	w.errs++
	w.writeLine("-", s)
}

// ErrorsWritten returns how many error replies this writer has encoded.
func (w *Writer) ErrorsWritten() uint64 { return w.errs }

// WriteInt writes an integer reply.
func (w *Writer) WriteInt(v int64) { w.writeLen(':', v) }

// WriteBulk writes a bulk string (nil → null).
func (w *Writer) WriteBulk(b []byte) {
	if b == nil {
		w.bw.WriteString("$-1\r\n")
		return
	}
	w.writeLen('$', int64(len(b)))
	w.bw.Write(b)
	w.bw.WriteString("\r\n")
}

// WriteBulkUint writes v's decimal digits as a bulk string — a score
// reply, encoded with no intermediate string.
func (w *Writer) WriteBulkUint(v uint64) {
	var d [20]byte
	digits := strconv.AppendUint(d[:0], v, 10)
	b := append(w.head(), '$')
	b = strconv.AppendInt(b, int64(len(digits)), 10)
	b = append(append(append(b, '\r', '\n'), digits...), '\r', '\n')
	w.bw.Write(b)
}

// WriteArrayHeader begins an array reply of n elements.
func (w *Writer) WriteArrayHeader(n int) { w.writeLen('*', int64(n)) }
