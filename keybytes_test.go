package cuckootrie_test

import (
	"errors"
	"math/rand"
	"testing"

	cuckootrie "repro"
)

// TestLongKeyBytesWrittenOnce: a key longer than 8 bytes is copied into a
// chunk only when its insert commits. A plan that does not commit (it
// needs room, its table resizes, or it is full) copies nothing, so loading
// distinct 16-byte keys writes exactly the live keys' bytes into chunks.
func TestLongKeyBytesWrittenOnce(t *testing.T) {
	const keyLen = 16
	load := func(tr *cuckootrie.Trie, n int, seed int64) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		k := make([]byte, keyLen)
		for i := 0; i < n; i++ {
			rng.Read(k)
			if _, err := tr.Set(k, uint64(i)); errors.Is(err, cuckootrie.ErrTableFull) {
				return
			} else if err != nil {
				t.Fatalf("Set: %v", err)
			}
		}
	}
	for _, c := range []struct {
		name string
		cfg  cuckootrie.Config
		n    int
	}{
		{"grown", cuckootrie.Config{AutoResize: true}, 200_000},
		{"full", cuckootrie.Config{CapacityHint: 4096}, 1 << 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := cuckootrie.New(c.cfg)
			load(tr, c.n, 46)
			live := int64(tr.Len()) * keyLen
			if written := tr.Stats().KeyBytesWritten; written != live {
				t.Errorf("%d keys: %d chunk bytes written for %d live key bytes (%.3f×)",
					tr.Len(), written, live, float64(written)/float64(live))
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
