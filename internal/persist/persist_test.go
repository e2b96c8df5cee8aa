package persist_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/sharded"
	"repro/internal/skiplist"
)

func mkIndex(capacity int) index.Index { return skiplist.New(7) }

func u64key(v uint64) []byte { return []byte(fmt.Sprintf("k%08d", v)) }

// collect returns an index's full ordered (key, value) stream.
func collect(ix index.Index) []string {
	var out []string
	ix.Scan(nil, 1<<30, func(k []byte, v uint64) bool {
		out = append(out, fmt.Sprintf("%s=%d", k, v))
		return true
	})
	return out
}

// assertEqual fails unless a and b hold exactly the same keys and values.
func assertEqual(t *testing.T, a, b index.Index) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("Len mismatch: %d vs %d", a.Len(), b.Len())
	}
	as, bs := collect(a), collect(b)
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("stream[%d]: %s vs %s", i, as[i], bs[i])
		}
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	// "group" is a second spelling of "always", not a policy of its own.
	for _, tc := range allPolicies {
		got, err := persist.ParseFsyncPolicy(tc.name)
		if err != nil || got != tc.pol {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v; want %v", tc.name, got, err, tc.pol)
		}
	}
	for _, s := range []string{"async", "fsync-maybe"} {
		_, err := persist.ParseFsyncPolicy(s)
		if err == nil || !strings.Contains(err.Error(), "always, everysec or no") {
			t.Fatalf("ParseFsyncPolicy(%q) error = %v, want one naming always, everysec or no", s, err)
		}
	}
}

func TestRecoverEmptyAndMissingDir(t *testing.T) {
	res, err := persist.Recover(filepath.Join(t.TempDir(), "never-created"), nil)
	if err != nil || len(res.Sets) != 0 || res.LastLSN != 0 {
		t.Fatalf("missing dir: %+v, %v", res, err)
	}
	dir := t.TempDir()
	ix, res, err := persist.RecoverIndex(dir, mkIndex)
	if err != nil || ix.Len() != 0 || res.SnapshotLSN != 0 {
		t.Fatalf("empty dir: len=%d %+v, %v", ix.Len(), res, err)
	}
}

// TestSnapshotWALRoundtrip is the core durability cycle: apply + log a
// random mixed stream, snapshot mid-way, keep logging, recover, and the
// rebuilt index must be element-for-element identical to the live one.
// The replayed count proves records at or below the snapshot LSN were
// filtered, not re-applied.
func TestSnapshotWALRoundtrip(t *testing.T) {
	dir := t.TempDir()
	wal, err := persist.OpenWAL(dir, persist.WALOptions{Policy: persist.FsyncNo})
	if err != nil {
		t.Fatal(err)
	}
	live := mkIndex(0)
	rng := rand.New(rand.NewSource(7))
	apply := func(n int) {
		for i := 0; i < n; i++ {
			k := u64key(uint64(rng.Intn(500)))
			if rng.Intn(4) == 0 && live.Len() > 0 {
				if live.Delete(k) {
					if _, err := wal.Append(persist.OpDelete, "", k, 0); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			v := uint64(rng.Intn(1 << 20))
			if _, err := live.Set(k, v); err != nil {
				t.Fatal(err)
			}
			if _, err := wal.Append(persist.OpSet, "", k, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(1000)
	snapLSN := wal.LSN()
	if _, err := persist.SaveIndex(dir, snapLSN, live); err != nil {
		t.Fatal(err)
	}
	apply(400)
	tail := int(wal.LSN() - snapLSN)
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	got, res, err := persist.RecoverIndex(dir, mkIndex)
	if err != nil {
		t.Fatal(err)
	}
	assertEqual(t, live, got)
	if res.SnapshotLSN != snapLSN {
		t.Fatalf("SnapshotLSN = %d, want %d", res.SnapshotLSN, snapLSN)
	}
	if res.Replayed != tail {
		t.Fatalf("Replayed = %d, want only the %d post-snapshot records", res.Replayed, tail)
	}
	if res.LastLSN != snapLSN+uint64(tail) || res.TornTail {
		t.Fatalf("LastLSN=%d TornTail=%v", res.LastLSN, res.TornTail)
	}
}

// TestWALOnlyRecovery: no snapshot at all — the WAL alone rebuilds state.
func TestWALOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	wal, err := persist.OpenWAL(dir, persist.WALOptions{Policy: persist.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	live := mkIndex(0)
	for i := 0; i < 100; i++ {
		k := u64key(uint64(i))
		live.Set(k, uint64(i))
		if lsn, err := wal.Append(persist.OpSet, "", k, uint64(i)); err != nil || lsn != uint64(i+1) {
			t.Fatalf("Append #%d = lsn %d, %v", i, lsn, err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	got, res, err := persist.RecoverIndex(dir, mkIndex)
	if err != nil {
		t.Fatal(err)
	}
	assertEqual(t, live, got)
	if res.Replayed != 100 || res.SnapshotLSN != 0 {
		t.Fatalf("res = %+v", res)
	}
}

// TestSegmentRotation: a tiny segment threshold forces many segments; LSNs
// stay continuous across them, replay walks them all in order, and after a
// snapshot RemoveObsolete drops exactly the fully-covered ones.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	wal, err := persist.OpenWAL(dir, persist.WALOptions{Policy: persist.FsyncNo, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	live := mkIndex(0)
	for i := 0; i < 300; i++ {
		k := u64key(uint64(i))
		live.Set(k, uint64(i))
		appendCommitted(t, wal, k, uint64(i))
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	segs := walSegmentNames(t, dir)
	if len(segs) < 4 {
		t.Fatalf("expected several segments, got %v", segs)
	}
	got, res, err := persist.RecoverIndex(dir, mkIndex)
	if err != nil {
		t.Fatal(err)
	}
	assertEqual(t, live, got)
	if res.Replayed != 300 {
		t.Fatalf("Replayed = %d", res.Replayed)
	}

	// Snapshot at the current head, then compact: only the newest segment
	// (the live append target) survives, and recovery still works.
	if _, err := persist.SaveIndex(dir, res.LastLSN, live); err != nil {
		t.Fatal(err)
	}
	if err := persist.RemoveObsolete(dir, res.LastLSN); err != nil {
		t.Fatal(err)
	}
	if left := walSegmentNames(t, dir); len(left) != 1 || left[0] != segs[len(segs)-1] {
		t.Fatalf("compaction left %v, want only %s", left, segs[len(segs)-1])
	}
	got2, res2, err := persist.RecoverIndex(dir, mkIndex)
	if err != nil {
		t.Fatal(err)
	}
	assertEqual(t, live, got2)
	if res2.Replayed != 0 {
		t.Fatalf("post-compaction Replayed = %d, want 0 (snapshot covers all)", res2.Replayed)
	}
}

// appendCommitted appends one OpSet record and commits it. Rotation is the
// syncer's, so a test that counts segments commits each record: the syncer
// rotates a full segment before it releases the Commit.
func appendCommitted(t *testing.T, wal *persist.WAL, key []byte, val uint64) {
	t.Helper()
	lsn, err := wal.Append(persist.OpSet, "", key, val)
	if err == nil {
		err = wal.Commit(lsn)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func walSegmentNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out
}

// TestTornTailMatrix truncates the WAL at EVERY byte offset of its final
// record and asserts recovery never errors, keeps every prior record, and
// flags the tail as torn whenever the cut lands mid-frame. This is the
// crash model: a record was being written when the machine died.
func TestTornTailMatrix(t *testing.T) {
	// Build a reference WAL once: 20 records, the last with a distinctive
	// key so its absence is checkable.
	master := t.TempDir()
	wal, err := persist.OpenWAL(master, persist.WALOptions{Policy: persist.FsyncNo})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := wal.Append(persist.OpSet, "", u64key(uint64(i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	segs := walSegmentNames(t, master)
	if len(segs) != 1 {
		t.Fatalf("want one segment, got %v", segs)
	}
	full, err := os.ReadFile(filepath.Join(master, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	// Locate the final record's start by replaying sizes: every record here
	// is identical-length, so it is (file - header) / n records back.
	recSize := (len(full) - 16) / n
	if 16+recSize*n != len(full) {
		t.Fatalf("unexpected layout: %d bytes, %d-byte records", len(full), recSize)
	}
	lastStart := len(full) - recSize

	for cut := lastStart; cut < len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segs[0]), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, res, err := persist.RecoverIndex(dir, mkIndex)
		if err != nil {
			t.Fatalf("cut at %d: recovery errored: %v", cut, err)
		}
		if got.Len() != n-1 {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, got.Len(), n-1)
		}
		if _, ok := got.Get(u64key(n - 1)); ok {
			t.Fatalf("cut at %d: truncated final record resurfaced", cut)
		}
		if _, ok := got.Get(u64key(n - 2)); !ok {
			t.Fatalf("cut at %d: lost an intact prior record", cut)
		}
		wantTorn := cut != lastStart // cutting exactly at the boundary is a clean end
		if res.TornTail != wantTorn {
			t.Fatalf("cut at %d: TornTail = %v, want %v", cut, res.TornTail, wantTorn)
		}
		if res.Replayed != n-1 {
			t.Fatalf("cut at %d: Replayed = %d", cut, res.Replayed)
		}

		// The write path must repair what the read path tolerated: OpenWAL
		// truncates the torn tail and the next append must land and replay.
		w2, err := persist.OpenWAL(dir, persist.WALOptions{Policy: persist.FsyncNo})
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", cut, err)
		}
		lsn, err := w2.Append(persist.OpSet, "", []byte("after-crash"), 777)
		if err != nil {
			t.Fatalf("cut at %d: append after repair: %v", cut, err)
		}
		if lsn != uint64(n) { // record n-1 was torn away, its LSN is reused
			t.Fatalf("cut at %d: post-repair LSN = %d, want %d", cut, lsn, n)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		got2, res2, err := persist.RecoverIndex(dir, mkIndex)
		if err != nil || res2.TornTail {
			t.Fatalf("cut at %d: post-repair recovery: %+v, %v", cut, res2, err)
		}
		if v, ok := got2.Get([]byte("after-crash")); !ok || v != 777 {
			t.Fatalf("cut at %d: post-repair append lost", cut)
		}
	}
}

// TestTornMiddleSegmentIsCorrupt: a torn frame with newer segments after
// it is NOT crash residue — replaying past it would silently drop known
// records, so recovery must refuse.
func TestTornMiddleSegmentIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	wal, err := persist.OpenWAL(dir, persist.WALOptions{Policy: persist.FsyncNo, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		appendCommitted(t, wal, u64key(uint64(i)), uint64(i))
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	segs := walSegmentNames(t, dir)
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %v", segs)
	}
	// Flip a byte in the middle of the first segment's record area.
	p := filepath.Join(dir, segs[0])
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	b[16+10] ^= 0xFF
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := persist.RecoverIndex(dir, mkIndex); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("recovery over mid-stream corruption = %v, want ErrCorrupt", err)
	}
}

// TestSnapshotFallback: a damaged newest snapshot (even one the MANIFEST
// points at) is skipped in favour of the next older valid one, and the WAL
// replays from the OLDER snapshot's LSN so nothing is lost.
func TestSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	wal, err := persist.OpenWAL(dir, persist.WALOptions{Policy: persist.FsyncNo})
	if err != nil {
		t.Fatal(err)
	}
	live := mkIndex(0)
	logSet := func(i int) {
		k := u64key(uint64(i))
		live.Set(k, uint64(i))
		if _, err := wal.Append(persist.OpSet, "", k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		logSet(i)
	}
	oldLSN := wal.LSN()
	if _, err := persist.SaveIndex(dir, oldLSN, live); err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 80; i++ {
		logSet(i)
	}
	newLSN := wal.LSN()
	newPath, err := persist.SaveIndex(dir, newLSN, live)
	if err != nil {
		t.Fatal(err)
	}
	for i := 80; i < 90; i++ {
		logSet(i)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	// Damage the newest snapshot: lop off its trailer.
	st, err := os.Stat(newPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newPath, st.Size()-10); err != nil {
		t.Fatal(err)
	}

	got, res, err := persist.RecoverIndex(dir, mkIndex)
	if err != nil {
		t.Fatal(err)
	}
	assertEqual(t, live, got)
	if res.SnapshotLSN != oldLSN {
		t.Fatalf("fell back to LSN %d, want %d", res.SnapshotLSN, oldLSN)
	}
	if res.Replayed != int(wal.LSN()-oldLSN) {
		t.Fatalf("Replayed = %d, want %d", res.Replayed, wal.LSN()-oldLSN)
	}

	// With the manifest gone entirely, the directory scan still finds the
	// right state.
	if err := os.Remove(filepath.Join(dir, "MANIFEST")); err != nil {
		t.Fatal(err)
	}
	got2, _, err := persist.RecoverIndex(dir, mkIndex)
	if err != nil {
		t.Fatal(err)
	}
	assertEqual(t, live, got2)
}

// TestFlushAllReplay: an OpFlushAll record wipes every set on replay; only
// later writes survive — the ordering FLUSHALL durability depends on.
func TestFlushAllReplay(t *testing.T) {
	dir := t.TempDir()
	wal, err := persist.OpenWAL(dir, persist.WALOptions{Policy: persist.FsyncNo})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := wal.Append(persist.OpSet, "s1", u64key(uint64(i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := wal.Append(persist.OpFlushAll, "", nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Append(persist.OpSet, "s2", []byte("survivor"), 1); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := persist.Recover(dir, func(set string, hint int) index.Index { return mkIndex(hint) })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 1 || res.Sets["s2"] == nil || res.Sets["s2"].Len() != 1 {
		t.Fatalf("sets after flush replay: %v", res.Sets)
	}
}

// TestNamespacedSnapshot: WriteSnapshot with several named sets recovers
// each into its own index, sized by its key count.
func TestNamespacedSnapshot(t *testing.T) {
	dir := t.TempDir()
	a, b := mkIndex(0), mkIndex(0)
	for i := 0; i < 64; i++ {
		a.Set(u64key(uint64(i)), uint64(i))
	}
	for i := 0; i < 16; i++ {
		b.Set([]byte(fmt.Sprintf("b%03d", i)), uint64(i*2))
	}
	_, err := persist.WriteSnapshot(dir, 0, []persist.SetSnapshot{
		{Set: "alpha", Cursor: a.NewCursor()},
		{Set: "beta", Cursor: b.NewCursor()},
		{Set: "empty", Cursor: mkIndex(0).NewCursor()},
	})
	if err != nil {
		t.Fatal(err)
	}
	hints := map[string]int{}
	res, err := persist.Recover(dir, func(set string, hint int) index.Index {
		hints[set] = hint
		return mkIndex(hint)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 3 {
		t.Fatalf("recovered %d sets", len(res.Sets))
	}
	assertEqual(t, a, res.Sets["alpha"])
	assertEqual(t, b, res.Sets["beta"])
	if res.Sets["empty"].Len() != 0 {
		t.Fatal("empty set grew keys")
	}
	if hints["alpha"] != 64 || hints["beta"] != 16 {
		t.Fatalf("capacity hints = %v", hints)
	}
}

// TestRecoverIgnoresLenHint: a snapshot's set frame has a reserved u64 that
// older images filled with a key-count hint, and a damaged or hostile image
// can name any size there. Recovery must size each set from its decoded
// key count, or a one-key snapshot claiming 2^28 keys makes the factory
// allocate for all of them.
func TestRecoverIgnoresLenHint(t *testing.T) {
	dir := t.TempDir()
	one := mkIndex(0)
	one.Set([]byte("only"), 1)
	path, err := persist.WriteSnapshot(dir, 0, []persist.SetSnapshot{
		{Set: "huge", Cursor: one.NewCursor()},
		{Set: "empty", Cursor: mkIndex(0).NewCursor()},
	})
	if err != nil {
		t.Fatal(err)
	}
	setFrameHints(t, path, 1<<28)
	hints := map[string]int{}
	if _, err := persist.Recover(dir, func(set string, hint int) index.Index {
		hints[set] = hint
		return mkIndex(hint)
	}); err != nil {
		t.Fatal(err)
	}
	if hints["huge"] != 1 || hints["empty"] != 0 {
		t.Fatalf("factory hints = %v, want the decoded key counts (huge 1, empty 0)", hints)
	}
}

// setFrameHints rewrites the reserved u64 of every set frame in the
// snapshot file at path to hint, re-sealing each frame's CRC.
func setFrameHints(t *testing.T, path string, hint uint64) {
	t.Helper()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 16; off < len(img); { // past the 16-byte header
		n := int(binary.LittleEndian.Uint32(img[off:]))
		payload := img[off+4 : off+4+n]
		if payload[0] == 0x01 { // set frame: the reserved u64 ends it
			binary.LittleEndian.PutUint64(payload[n-8:], hint)
			crc := crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))
			binary.LittleEndian.PutUint32(img[off+4+n:], crc)
		}
		off += n + 8
	}
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSampledRouterTrainsFromSnapshotStream: recovering into an empty
// 4-shard index with an UNTRAINED sampled router must train the boundaries
// from the snapshot's bulk-load stream — the recovered index spreads keys
// across shards instead of degenerating to shard 0.
func TestSampledRouterTrainsFromSnapshotStream(t *testing.T) {
	dir := t.TempDir()
	src := mkIndex(0)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4000; i++ {
		k := make([]byte, 1+rng.Intn(18))
		rng.Read(k)
		src.Set(k, uint64(i))
	}
	if _, err := persist.SaveIndex(dir, 0, src); err != nil {
		t.Fatal(err)
	}
	got, _, err := persist.RecoverIndex(dir, func(c int) index.Index {
		return sharded.NewWithRouter(4, c, mkIndex, sharded.NewSampledRouter)
	})
	if err != nil {
		t.Fatal(err)
	}
	assertEqual(t, src, got)
	sx := got.(*sharded.Index)
	sr := sx.Router().(*sharded.SampledRouter)
	if !sr.Trained() {
		t.Fatal("sampled router not trained by snapshot bulk load")
	}
	lens := sx.ShardLens()
	maxLen, total := 0, 0
	for _, l := range lens {
		total += l
		if l > maxLen {
			maxLen = l
		}
	}
	if ratio := float64(maxLen) / (float64(total) / float64(len(lens))); ratio > 1.5 {
		t.Fatalf("snapshot-trained boundaries unbalanced: shard lens %v (max/mean %.2f)", lens, ratio)
	}
}

// TestFsyncPolicies: every policy survives the append→close→recover cycle,
// and a Commit barrier puts the records on disk with the writer still open
// (checked via file growth, not a crash, to keep the test hermetic).
func TestFsyncPolicies(t *testing.T) {
	for _, tc := range allPolicies {
		pol := tc.pol
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			wal, err := persist.OpenWAL(dir, persist.WALOptions{Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				if _, err := wal.Append(persist.OpSet, "", u64key(uint64(i)), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := wal.Commit(wal.LSN()); err != nil {
				t.Fatal(err)
			}
			// After a Commit barrier the records must be on disk even with
			// the writer still open.
			segs := walSegmentNames(t, dir)
			b, err := os.ReadFile(filepath.Join(dir, segs[0]))
			if err != nil {
				t.Fatal(err)
			}
			if len(b) <= 16 {
				t.Fatalf("policy %v: synced segment still empty", pol)
			}
			if err := wal.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := wal.Append(persist.OpSet, "", []byte("x"), 1); !errors.Is(err, persist.ErrWALClosed) {
				t.Fatalf("append after close = %v", err)
			}
			got, _, err := persist.RecoverIndex(dir, mkIndex)
			if err != nil || got.Len() != 50 {
				t.Fatalf("policy %v: recovered %d, %v", pol, got.Len(), err)
			}
		})
	}
}

// TestFloorLSNAfterSnapshotAheadOfWAL: a crash can leave a durable
// snapshot AHEAD of the on-disk WAL (snapshots fsync immediately; an
// everysec WAL tail may not have made it). Reopening the WAL with the
// recovery result's LastLSN as the floor must keep new LSNs strictly
// above the snapshot's, or post-restart acknowledged writes would be
// filtered out by the NEXT recovery.
func TestFloorLSNAfterSnapshotAheadOfWAL(t *testing.T) {
	dir := t.TempDir()
	wal, err := persist.OpenWAL(dir, persist.WALOptions{Policy: persist.FsyncNo})
	if err != nil {
		t.Fatal(err)
	}
	live := mkIndex(0)
	const n = 50
	for i := 0; i < n; i++ {
		k := u64key(uint64(i))
		live.Set(k, uint64(i))
		if _, err := wal.Append(persist.OpSet, "", k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot at LSN 50 — durable. Then simulate the lost unsynced WAL
	// tail: truncate the segment back to 40 records.
	if _, err := persist.SaveIndex(dir, n, live); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	segs := walSegmentNames(t, dir)
	segPath := filepath.Join(dir, segs[0])
	b, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	recSize := (len(b) - 16) / n
	if err := os.Truncate(segPath, int64(16+recSize*40)); err != nil {
		t.Fatal(err)
	}

	// Restart: recovery state comes from the snapshot (LastLSN 50).
	got, res, err := persist.RecoverIndex(dir, mkIndex)
	if err != nil || got.Len() != n || res.LastLSN != n {
		t.Fatalf("recovery after lost tail: len=%d res=%+v err=%v", got.Len(), res, err)
	}
	w2, err := persist.OpenWAL(dir, persist.WALOptions{Policy: persist.FsyncNo, FloorLSN: res.LastLSN})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := w2.Append(persist.OpSet, "", []byte("post-restart"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != n+1 {
		t.Fatalf("post-restart LSN = %d, want %d (snapshot-covered LSN reused)", lsn, n+1)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got2, _, err := persist.RecoverIndex(dir, mkIndex)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got2.Get([]byte("post-restart")); !ok {
		t.Fatal("acknowledged post-restart write lost to LSN reuse")
	}
	if got2.Len() != n+1 {
		t.Fatalf("final Len = %d, want %d", got2.Len(), n+1)
	}
}

// TestRecoverDetectsLSNGap: once compaction has dropped WAL segments a
// snapshot covers, that snapshot is the only copy of their records. If it
// is later damaged, recovery must refuse (the surviving WAL starts past
// the state it has) rather than serve the tail as if it were everything.
func TestRecoverDetectsLSNGap(t *testing.T) {
	dir := t.TempDir()
	wal, err := persist.OpenWAL(dir, persist.WALOptions{Policy: persist.FsyncNo, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	live := mkIndex(0)
	for i := 0; i < 200; i++ {
		k := u64key(uint64(i))
		live.Set(k, uint64(i))
		if _, err := wal.Append(persist.OpSet, "", k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	lsn := wal.LSN()
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath, err := persist.SaveIndex(dir, lsn, live)
	if err != nil {
		t.Fatal(err)
	}
	if err := persist.RemoveObsolete(dir, lsn); err != nil {
		t.Fatal(err)
	}
	// Damage the now-only snapshot.
	st, err := os.Stat(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(snapPath, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := persist.RecoverIndex(dir, mkIndex); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("recovery with a gapped WAL = %v, want ErrCorrupt", err)
	}
}

// TestSnapshotRejectsGarbage: random junk with a snapshot filename is
// invalid, never fatal, and never shadows the WAL's data.
func TestSnapshotRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	wal, err := persist.OpenWAL(dir, persist.WALOptions{Policy: persist.FsyncNo})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Append(persist.OpSet, "", []byte("real"), 9); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	junk := bytes.Repeat([]byte{0xAB}, 200)
	if err := os.WriteFile(filepath.Join(dir, "snap-00000000000000ff.snap"), junk, 0o644); err != nil {
		t.Fatal(err)
	}
	got, res, err := persist.RecoverIndex(dir, mkIndex)
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotLSN != 0 || got.Len() != 1 {
		t.Fatalf("garbage snapshot was believed: %+v len=%d", res, got.Len())
	}
}
