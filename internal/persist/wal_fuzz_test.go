package persist

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzScanSegment feeds a valid segment header followed by arbitrary
// record bytes to the WAL decoder. Whatever the bytes, the scan must not
// panic, must stop inside the data, must be idempotent on its own intact
// prefix (rescanning data[:goodOff] is a clean end at the same last LSN),
// and every record it accepts must be the canonical encoding: re-encoded
// through AppendRecordFrame it reproduces its frame byte for byte.
func FuzzScanSegment(f *testing.F) {
	const first = 1
	var hdr [walHeaderLen]byte
	copy(hdr[:8], walMagic)
	binary.LittleEndian.PutUint64(hdr[8:], first)
	f.Fuzz(func(t *testing.T, records []byte) {
		data := append(hdr[:len(hdr):len(hdr)], records...)
		accepted := 0
		off := int64(walHeaderLen) // start of the next accepted frame
		_, last, goodOff, _, err := scanSegment(bytes.NewReader(data), first, func(rec *Record) error {
			n := frameSize(int(binary.LittleEndian.Uint32(data[off:])))
			want := data[off : off+n]
			if got := AppendRecordFrame(nil, rec.Op, rec.LSN, rec.Set, rec.Key, rec.Val); !bytes.Equal(got, want) {
				t.Fatalf("record at offset %d re-encodes to %x, frame was %x", off, got, want)
			}
			accepted++
			off += n
			return nil
		})
		if err != nil {
			t.Fatalf("scan without apply errors returned %v", err)
		}
		if goodOff < walHeaderLen || goodOff > int64(len(data)) {
			t.Fatalf("goodOff %d outside [%d, %d]", goodOff, walHeaderLen, len(data))
		}
		if goodOff != off {
			t.Fatalf("goodOff %d, but the %d accepted frames end at %d", goodOff, accepted, off)
		}
		_, last2, goodOff2, torn2, err := scanSegment(bytes.NewReader(data[:goodOff]), first, nil)
		if err != nil || torn2 || last2 != last || goodOff2 != goodOff {
			t.Fatalf("rescan of the intact prefix = (last %d, goodOff %d, torn %v, %v), want (last %d, goodOff %d, clean)",
				last2, goodOff2, torn2, err, last, goodOff)
		}
	})
}
