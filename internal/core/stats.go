package core

// Stats reports structural and memory statistics, matching the paper's
// memory-overhead accounting (§6.5): the index's own memory including
// pointers to key-value pairs but excluding the key-value bytes themselves.
type Stats struct {
	Keys        int
	Buckets     uint64
	SlotsTotal  int
	SlotsUsed   int
	LoadFactor  float64
	NodesPerKey float64

	InternalNodes int
	JumpNodes     int
	Leaves        int

	// TableBytes is the Go table's actual footprint: 256-byte groups of
	// three buckets (table.go), so 85.3 bytes per bucket — a 4-byte seqlock
	// and four 20-byte entries, plus 4 bytes of head padding per group.
	// PaperTableBytes is what the paper's layout (64-byte buckets:
	// 4×15-byte entries + 4-byte seqlock) would occupy at the same bucket
	// count.
	TableBytes      int64
	PaperTableBytes int64
	// RecordPtrBytes is the per-key record bookkeeping (the "pointer to the
	// key-value pair" the paper charges to the index).
	RecordPtrBytes int64
	// KeyBytes is the chunk storage of keys longer than 8 bytes (excluded
	// from index overhead); shorter keys live in their leaves' words,
	// inside TableBytes. KeyBytesWritten is how much of it holds key
	// copies, live or deleted.
	KeyBytes        int64
	KeyBytesWritten int64

	// BytesPerKey / PaperBytesPerKey are the headline Figure 11 numbers.
	BytesPerKey      float64
	PaperBytesPerKey float64
}

// Stats scans the table; it is not linearizable with concurrent writers.
func (tr *Trie) Stats() Stats {
	t := tr.tbl.Load()
	var s Stats
	s.Keys = int(tr.count.Load())
	s.Buckets = t.buckets
	s.SlotsTotal = int(t.buckets) * entriesPerBucket
	var w0s [entriesPerBucket]uint64
	for b := uint64(0); b < t.buckets; b++ {
		if _, ok := t.loadHeads(b, &w0s); !ok {
			continue
		}
		for _, w := range w0s {
			switch rawKind(w) {
			case kindInternal:
				s.InternalNodes++
			case kindJump:
				s.JumpNodes++
			case kindLeaf:
				s.Leaves++
			}
		}
	}
	s.SlotsUsed = s.InternalNodes + s.JumpNodes + s.Leaves
	if s.SlotsTotal > 0 {
		s.LoadFactor = float64(s.SlotsUsed) / float64(s.SlotsTotal)
	}
	if s.Keys > 0 {
		s.NodesPerKey = float64(s.SlotsUsed) / float64(s.Keys)
	}
	s.TableBytes = int64(len(t.words)) * 8
	s.PaperTableBytes = int64(t.buckets) * 64
	s.RecordPtrBytes, s.KeyBytes, s.KeyBytesWritten = tr.recs.memoryBytes()
	if s.Keys > 0 {
		s.BytesPerKey = float64(s.TableBytes+s.RecordPtrBytes) / float64(s.Keys)
		// Paper layout: 64-byte buckets plus an 8-byte record pointer per key.
		s.PaperBytesPerKey = float64(s.PaperTableBytes+int64(s.Keys)*8) / float64(s.Keys)
	}
	return s
}
