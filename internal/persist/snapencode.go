package persist

import (
	"encoding/binary"
	"io"
)

// encodeSnapshot writes a complete snapshot image at lsn to w: the header,
// then per set one set frame and its pairs in kv batch frames of at most
// snapBatchKVs, then the trailer. It drives each set's cursor from the
// start but does not close it. WriteSnapshot stages its file through it,
// and FuzzDecodeSnapshotStream re-encodes what the decoder accepted.
func encodeSnapshot(w io.Writer, lsn uint64, sets []SetSnapshot) error {
	var hdr [snapHeaderLen]byte
	copy(hdr[:8], snapMagic)
	binary.LittleEndian.PutUint64(hdr[8:], lsn)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	total := uint64(0)
	payload := make([]byte, 0, 1<<14)
	batch := make([]byte, 0, 1<<14)
	for _, s := range sets {
		payload = append(payload[:0], frameSet)
		payload = appendUvarint(payload, uint64(len(s.Set)))
		payload = append(payload, s.Set...)
		payload = binary.LittleEndian.AppendUint64(payload, 0) // reserved
		if err := writeFrame(w, payload); err != nil {
			return err
		}
		c := s.Cursor
		if c == nil {
			continue
		}
		inBatch := 0
		flushBatch := func() error {
			if inBatch == 0 {
				return nil
			}
			payload = append(payload[:0], frameKVBatch)
			payload = appendUvarint(payload, uint64(inBatch))
			payload = append(payload, batch...)
			batch, inBatch = batch[:0], 0
			return writeFrame(w, payload)
		}
		for ok := c.Seek(nil); ok; ok = c.Next() {
			k := c.Key()
			batch = appendUvarint(batch, uint64(len(k)))
			batch = append(batch, k...)
			batch = binary.LittleEndian.AppendUint64(batch, c.Value())
			total++
			if inBatch++; inBatch >= snapBatchKVs {
				if err := flushBatch(); err != nil {
					return err
				}
			}
		}
		if err := flushBatch(); err != nil {
			return err
		}
	}
	payload = append(payload[:0], frameTrailer)
	payload = binary.LittleEndian.AppendUint64(payload, total)
	payload = binary.LittleEndian.AppendUint64(payload, lsn)
	return writeFrame(w, payload)
}
