package core

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"

	"repro/internal/keys"
)

// keyForms are the two key encodings the concurrent tests run with, both
// ordered as v is: an 8-byte key, held inline in its leaf's key word, and a
// 16-byte one (the same 8 bytes, then their complement), held in a key
// chunk. The suffix never reaches the trie — the 8-byte prefixes are
// already unique — so both forms build the same shape.
var keyForms = []struct {
	name string
	key  func(v uint64) []byte
}{
	{"8B", keys.Uint64Key},
	{"16B", func(v uint64) []byte { return binary.BigEndian.AppendUint64(keys.Uint64Key(v), ^v) }},
}

// TestKeyFormsThroughShapeChanges drives keys of 0–16 bytes that share
// prefixes across the 8/9-byte boundary between inline and chunked keys
// through every writer that makes or moves a leaf — a leaf split, a jump
// split, a delete that hoists a short-key leaf, one that hoists a long-key
// leaf, and a resize — and after each step reads every key back through
// each read path.
func TestKeyFormsThroughShapeChanges(t *testing.T) {
	tr := New(Config{CapacityHint: 64})
	model := map[string]uint64{}
	set := func(k string) {
		t.Helper()
		v := uint64(len(model)+1) << 8
		model[k] = v
		mustSet(t, tr, []byte(k), v)
	}
	del := func(k string) {
		t.Helper()
		if !tr.Delete([]byte(k)) {
			t.Fatalf("Delete(%q) = false", k)
		}
		delete(model, k)
	}
	descent := func(k string) (*pathNode, searchState) {
		_, st := tr.searchPath(tr.tbl.Load(), keys.AppendSymbols(nil, []byte(k)), nil)
		return st.terminal(), st
	}
	leafDepth := func(k string) int {
		t.Helper()
		n, st := descent(k)
		var kbuf [inlineKeyMax]byte
		if st.outcome != soLeaf || string(tr.recs.leafKey(n.w0, n.w1, &kbuf)) != k {
			t.Fatalf("%q has no leaf", k)
		}
		return n.depth
	}

	const alpha = "abcdefghijklmnop"
	for n := 0; n <= len(alpha); n++ {
		set(alpha[:n])
	}
	set("xxxxxxxx")
	checkKeyForms(t, tr, model)

	// Leaf split: a 9-byte key lands on the 8-byte key's leaf, which the
	// split places again with its inline key word.
	if n, st := descent("xxxxxxxxy"); st.outcome != soLeaf || rawKeyCode(n.w0) != 9 {
		t.Fatalf("descent for the leaf split: outcome %d, key code %d", st.outcome, rawKeyCode(n.w0))
	}
	set("xxxxxxxxy")
	checkKeyForms(t, tr, model)

	// Jump split: a short and a long key diverge inside the chain of jump
	// nodes the leaf split built.
	for _, k := range []string{"xxxx", "xxxxxxw1234567"} {
		if _, st := descent(k); st.outcome != soJumpMismatch {
			t.Fatalf("descent for %q: outcome %d, want a jump mismatch", k, st.outcome)
		}
		set(k)
		checkKeyForms(t, tr, model)
	}

	// Delete hoists: the sibling left alone under the split's branch node
	// moves up, its key word with it — first the short key, then (split
	// again) the long one.
	for _, c := range []struct{ gone, hoisted string }{
		{"xxxxxxxxy", "xxxxxxxx"},
		{"xxxxxxxx", "xxxxxxxxy"},
	} {
		if _, ok := model[c.hoisted]; !ok {
			set(c.hoisted)
		}
		before := leafDepth(c.hoisted)
		del(c.gone)
		if after := leafDepth(c.hoisted); after >= before {
			t.Fatalf("deleting %q left %q at depth %d, was %d: no hoist", c.gone, c.hoisted, after, before)
		}
		checkKeyForms(t, tr, model)
	}

	gen := tr.gen.Load()
	if err := tr.resize(tr.tbl.Load()); err != nil || tr.gen.Load() == gen {
		t.Fatalf("resize: err %v, generation %d → %d", err, gen, tr.gen.Load())
	}
	checkKeyForms(t, tr, model)
}

// checkKeyForms reads every key of model back through Get, MultiGet, Seek,
// Predecessor and a cursor, probes absent neighbours of each key, and
// checks the invariants.
func checkKeyForms(t *testing.T, tr *Trie, model map[string]uint64) {
	t.Helper()
	var sorted []string
	for k := range model {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	// floor returns the index of the largest key ≤ k, or -1.
	floor := func(k string) int { return sort.SearchStrings(sorted, k+"\x00") - 1 }

	var probes [][]byte
	for _, k := range sorted {
		probes = append(probes, []byte(k), []byte(k+"\x00"), []byte(k+"~"))
		if k != "" {
			probes = append(probes, []byte(k[:len(k)-1]+"\x00"))
		}
	}
	vals := make([]uint64, len(probes))
	found := make([]bool, len(probes))
	tr.MultiGet(probes, vals, found)
	for i, p := range probes {
		want, in := model[string(p)]
		if v, ok := tr.Get(p); ok != in || v != want {
			t.Fatalf("Get(%q) = %d, %v; want %d, %v", p, v, ok, want, in)
		}
		if found[i] != in || vals[i] != want {
			t.Fatalf("MultiGet(%q) = %d, %v; want %d, %v", p, vals[i], found[i], want, in)
		}
		f := floor(string(p))
		k, v, ok := tr.Predecessor(p)
		if ok != (f >= 0) || ok && (string(k) != sorted[f] || v != model[sorted[f]]) {
			t.Fatalf("Predecessor(%q) = %q, %d, %v", p, k, v, ok)
		}
		if f >= 0 && sorted[f] == string(p) {
			f-- // Seek's answer is the smallest key ≥ p
		}
		it, err := tr.Seek(p)
		must(t, err)
		if it.Valid() != (f+1 < len(sorted)) || it.Valid() && (string(it.Key()) != sorted[f+1] || it.Value() != model[sorted[f+1]]) {
			t.Fatalf("Seek(%q) = %q, %d, %v", p, it.Key(), it.Value(), it.Valid())
		}
	}
	cur := tr.NewCursor()
	i := 0
	for ok := cur.Seek(nil); ok; ok = cur.Next() {
		if i >= len(sorted) || !bytes.Equal(cur.Key(), []byte(sorted[i])) || cur.Value() != model[sorted[i]] {
			t.Fatalf("cursor[%d] = %q, %d", i, cur.Key(), cur.Value())
		}
		i++
	}
	if i != len(sorted) {
		t.Fatalf("cursor visited %d keys, want %d", i, len(sorted))
	}
	checkInv(t, tr)
}
