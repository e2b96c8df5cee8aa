package core

import (
	"testing"

	"repro/internal/dataset"
)

// TestLookupLevelsPinned pins LookupLevels' output, which the benchmark's
// core.levels_per_lookup and core.probe_lines_per_lookup and ctbench's
// table3 read: over a seeded 20 k-key rand-8 trie, the levels and probed
// lines of every loaded key (hits) and of 20 k fresh keys (mostly misses)
// must sum to the recorded constants. A change to how the trie is shaped,
// hashed or descended moves them; a refactor of the descent must not.
func TestLookupLevelsPinned(t *testing.T) {
	const n = 20000
	ks := dataset.Generate(dataset.Rand8, n, 7)
	tr := New(Config{CapacityHint: n, AutoResize: true})
	for i, k := range ks {
		mustSet(t, tr, k, uint64(i))
	}
	probes := append(ks, dataset.Generate(dataset.Rand8, n, 8)...)
	levels, lines := 0, 0
	for _, k := range probes {
		lv := tr.LookupLevels(k)
		levels += len(lv)
		for _, l := range lv {
			lines += len(l)
		}
	}
	const wantLevels, wantLines = 151995, 402828
	if levels != wantLevels || lines != wantLines {
		t.Fatalf("LookupLevels over %d probes: %d levels, %d lines; want %d, %d", len(probes), levels, lines, wantLevels, wantLines)
	}
}
