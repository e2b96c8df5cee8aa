package cuckootrie_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	cuckootrie "repro"
	"repro/internal/dataset"
)

// TestUpdatesSurviveSlotGrowth updates keys in place while another
// goroutine's inserts keep growing the record-slot array of a trie sized
// for 64 keys. An update that lands in the old array after a grow copied it
// would be lost, so every updated key must end on the value last written
// to it, and every inserted key on its own. Under -race the grow's copy
// must also not race the updates' stores.
func TestUpdatesSurviveSlotGrowth(t *testing.T) {
	const owned, fresh = 64, 200_000
	all := dataset.Generate(dataset.Rand8, owned+fresh, 23)
	mine, theirs := all[:owned], all[owned:]
	trie := cuckootrie.New(cuckootrie.Config{CapacityHint: 64, AutoResize: true})
	for i, k := range mine {
		mustInsert(t, trie, k, uint64(i))
	}

	var done atomic.Bool
	last := make([]uint64, owned)
	updated := make(chan error, 1)
	go func() {
		for v := uint64(owned); !done.Load(); v++ {
			i := int(v % owned)
			if added, err := trie.Set(mine[i], v); added || err != nil {
				updated <- fmt.Errorf("Set(%x, %d): added=%v err=%v", mine[i], v, added, err)
				return
			}
			last[i] = v
		}
		updated <- nil
	}()
	for i, k := range theirs {
		if added, err := trie.Set(k, uint64(owned+i)); !added || err != nil {
			done.Store(true)
			<-updated
			t.Fatalf("Set(%x): added=%v err=%v", k, added, err)
		}
	}
	done.Store(true)
	if err := <-updated; err != nil {
		t.Fatal(err)
	}

	for i, k := range mine {
		if v, ok := trie.Get(k); !ok || v != last[i] {
			t.Errorf("updated key %x = %d, %v; want %d (the last value written)", k, v, ok, last[i])
		}
	}
	for i, k := range theirs {
		if v, ok := trie.Get(k); !ok || v != uint64(owned+i) {
			t.Fatalf("inserted key %x = %d, %v; want %d", k, v, ok, owned+i)
		}
	}
	if trie.Len() != owned+fresh {
		t.Fatalf("Len = %d, want %d", trie.Len(), owned+fresh)
	}
}
