package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// FuzzDecodeSnapshotStream feeds arbitrary bytes to the snapshot decoder a
// replica runs on a full-sync stream. Whatever the bytes, decoding must
// not panic and must either succeed or report ErrCorrupt. An accepted
// image must consume every frame's payload exactly, and re-encoding it
// through the writer's own framing (encodeSnapshot) must decode to the
// same LSN and sets.
func FuzzDecodeSnapshotStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		lsn, sets, err := DecodeSnapshotStream(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		var re bytes.Buffer
		if err := encodeSnapshot(&re, lsn, snapshotSources(sets)); err != nil {
			t.Fatal(err)
		}
		// The two images may batch pairs differently; everything else
		// costs the same bytes in both, so equal sizes net of batch framing
		// mean no accepted frame carried bytes the decoder did not consume.
		if got, want := len(data)-batchFraming(data), re.Len()-batchFraming(re.Bytes()); got != want {
			t.Fatalf("accepted image holds %d bytes of content, its re-encoding %d: some frame has unconsumed bytes", got, want)
		}
		lsn2, sets2, err := DecodeSnapshotStream(bytes.NewReader(re.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded image does not decode: %v", err)
		}
		if lsn2 != lsn || !reflect.DeepEqual(sets2, sets) {
			t.Fatalf("re-encoding changed the image: lsn %d → %d, sets %v → %v", lsn, lsn2, sets, sets2)
		}
	})
}

// batchFraming sums what each kv batch frame of a decodable image spends
// beyond its pairs: the frame envelope, the kind byte and the pair count.
func batchFraming(img []byte) int {
	fr := frameReader{r: bytes.NewReader(img[snapHeaderLen:])}
	n := 0
	for {
		payload, err := fr.next()
		if err != nil {
			return n
		}
		if payload[0] == frameKVBatch {
			_, m := binary.Uvarint(payload[1:])
			n += int(frameSize(1 + m))
		}
	}
}

// snapshotSources turns decoded sets back into writer input.
func snapshotSources(sets []SnapshotSet) []SetSnapshot {
	src := make([]SetSnapshot, len(sets))
	for i, s := range sets {
		src[i] = SetSnapshot{Set: s.Set, Cursor: &sliceCursor{set: s}}
	}
	return src
}

// sliceCursor replays a decoded set's pairs in their decoded order, as a
// KeyValueCursor; encodeSnapshot only ever seeks to the start.
type sliceCursor struct {
	set SnapshotSet
	i   int
}

func (c *sliceCursor) Seek([]byte) bool { c.i = 0; return c.Valid() }
func (c *sliceCursor) Valid() bool      { return c.i < len(c.set.Keys) }
func (c *sliceCursor) Key() []byte      { return c.set.Keys[c.i] }
func (c *sliceCursor) Value() uint64    { return c.set.Vals[c.i] }
func (c *sliceCursor) Next() bool       { c.i++; return c.Valid() }
func (c *sliceCursor) Close()           {}
