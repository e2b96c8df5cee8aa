package persist_test

import (
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/persist"
)

// TestGroupCommitMultiWriter: the tentpole contract — N concurrent writers
// Append then park on Commit; every Commit returns with its record durable,
// and recovery after a clean close sees every acknowledged write.
func TestGroupCommitMultiWriter(t *testing.T) {
	dir := t.TempDir()
	wal, err := persist.OpenWAL(dir, persist.WALOptions{Policy: persist.FsyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				lsn, err := wal.Append(persist.OpSet, "", u64key(uint64(g*perWriter+i)), uint64(i))
				if err != nil {
					errs[g] = err
					return
				}
				if err := wal.Commit(lsn); err != nil {
					errs[g] = err
					return
				}
				if d := wal.DurableLSN(); d < lsn {
					errs[g] = errors.New("Commit returned before DurableLSN covered the record")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", g, err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := persist.RecoverIndex(dir, mkIndex)
	if err != nil || got.Len() != writers*perWriter {
		t.Fatalf("recovered %d records, want %d (%v)", got.Len(), writers*perWriter, err)
	}
}

// TestGroupCommitStickyErrorFanOut: an injected fsync failure must fail
// EVERY parked writer — not just the next Append — and poison the WAL for
// everything after it. The first fsync is held hostage on a gate until all
// writers have appended and parked, then fails.
func TestGroupCommitStickyErrorFanOut(t *testing.T) {
	dir := t.TempDir()
	injected := errors.New("injected fsync failure")
	var armed atomic.Bool
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	wal, err := persist.OpenWAL(dir, persist.WALOptions{
		Policy: persist.FsyncGroup,
		FsyncFn: func(f *os.File) error {
			if armed.Load() {
				started <- struct{}{}
				<-release
				return injected
			}
			return f.Sync()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lsn, err := wal.Append(persist.OpSet, "", u64key(uint64(g)), 1)
			if err != nil {
				errs[g] = err
				return
			}
			errs[g] = wal.Commit(lsn)
		}(g)
	}
	<-started // the syncer is inside the gated fsync
	for wal.LSN() < writers {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // let the last appenders reach Commit
	close(release)
	wg.Wait()
	for g, err := range errs {
		if !errors.Is(err, injected) {
			t.Fatalf("parked writer %d got %v, want the injected fsync error", g, err)
		}
	}
	// Sticky: the WAL must refuse further appends rather than acknowledge
	// writes it can never make durable.
	if _, err := wal.Append(persist.OpSet, "", []byte("after"), 1); !errors.Is(err, injected) {
		t.Fatalf("Append after poisoned sync = %v, want sticky error", err)
	}
	if err := wal.Commit(0); err != nil {
		// LSN 0 was durable before the failure; Commit below the watermark
		// stays satisfiable.
		t.Fatalf("Commit(0) = %v, want nil", err)
	}
	if err := wal.Close(); !errors.Is(err, injected) {
		t.Fatalf("Close = %v, want the sticky sync error surfaced", err)
	}
}

// TestCloseWithParkedWriters: Close during a pending group sync must
// complete that sync and release every parked writer with its durability
// intact — no goroutine leak, no writer stuck, no acknowledged loss. The
// fsync is blocked on a gate so the writers are provably parked when Close
// is called.
func TestCloseWithParkedWriters(t *testing.T) {
	dir := t.TempDir()
	var gate atomic.Bool
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	wal, err := persist.OpenWAL(dir, persist.WALOptions{
		Policy: persist.FsyncGroup,
		FsyncFn: func(f *os.File) error {
			if gate.Load() {
				started <- struct{}{}
				<-release
			}
			return f.Sync()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	gate.Store(true)
	const writers = 8
	// Append everything up front (appends only buffer under FsyncGroup), so
	// Close below cannot race an Append; the goroutines park on Commit.
	lsns := make([]uint64, writers)
	for g := 0; g < writers; g++ {
		if lsns[g], err = wal.Append(persist.OpSet, "", u64key(uint64(g)), 1); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = wal.Commit(lsns[g])
		}(g)
	}
	<-started // the syncer is inside the blocked fsync: writers are parked
	time.Sleep(10 * time.Millisecond)
	closeErr := make(chan error, 1)
	go func() { closeErr <- wal.Close() }()
	// Close must be waiting on the syncer, not force-closing the file out
	// from under it. Release the gate and everything must drain.
	time.Sleep(10 * time.Millisecond)
	gate.Store(false)
	close(release)
	if err := <-closeErr; err != nil {
		t.Fatalf("Close = %v", err)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d parked at Close got %v, want nil (sync completed)", g, err)
		}
	}
	got, _, err := persist.RecoverIndex(dir, mkIndex)
	if err != nil || got.Len() != writers {
		t.Fatalf("recovered %d, want %d (%v)", got.Len(), writers, err)
	}
}

// TestGroupCommitBatchesDuringFsync: with no coalescing timer, the fsync in
// flight is the batching window. Writers that append and park while fsync
// #1 is blocked must all be covered by exactly one more fsync.
func TestGroupCommitBatchesDuringFsync(t *testing.T) {
	var armed atomic.Bool
	var fsyncs atomic.Int32
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	wal, err := persist.OpenWAL(t.TempDir(), persist.WALOptions{
		Policy: persist.FsyncGroup,
		FsyncFn: func(f *os.File) error {
			if armed.Load() && fsyncs.Add(1) == 1 {
				started <- struct{}{}
				<-release
			}
			return f.Sync()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	armed.Store(true)
	first, err := wal.Append(persist.OpSet, "", []byte("first"), 1)
	if err != nil {
		t.Fatal(err)
	}
	<-started // fsync #1 (covering only the first record) is in flight
	const writers = 8
	var appended, done sync.WaitGroup
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		appended.Add(1)
		done.Add(1)
		go func(g int) {
			defer done.Done()
			lsn, err := wal.Append(persist.OpSet, "", u64key(uint64(g)), 1)
			appended.Done()
			if err != nil {
				errs[g] = err
				return
			}
			errs[g] = wal.Commit(lsn)
		}(g)
	}
	appended.Wait()
	close(release)
	done.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", g, err)
		}
	}
	if err := wal.Commit(first); err != nil {
		t.Fatal(err)
	}
	if n := fsyncs.Load(); n != 2 {
		t.Fatalf("%d fsyncs covered %d writers appended during fsync #1, want 2 (the gated one + one batch)", n, writers)
	}
	if got := wal.Metrics().BatchSize.Snapshot().Max(); got != writers {
		t.Fatalf("largest group batch = %d, want %d", got, writers)
	}
}

// TestGroupRotation: under group/async the syncer owns segment rotation;
// with a tiny SegmentBytes the log must still rotate, stay recoverable,
// and keep LSNs continuous across boundaries.
func TestGroupRotation(t *testing.T) {
	for _, pol := range []persist.FsyncPolicy{persist.FsyncGroup, persist.FsyncAsync} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			wal, err := persist.OpenWAL(dir, persist.WALOptions{
				Policy:       pol,
				SegmentBytes: 256,
			})
			if err != nil {
				t.Fatal(err)
			}
			const n = 100
			var last uint64
			for i := 0; i < n; i++ {
				if last, err = wal.Append(persist.OpSet, "", u64key(uint64(i)), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := wal.Commit(last); err != nil {
				t.Fatal(err)
			}
			if segs := walSegmentNames(t, dir); len(segs) < 2 {
				t.Fatalf("no rotation happened: %d segment(s) for %d records at SegmentBytes=256", len(segs), n)
			}
			if err := wal.Close(); err != nil {
				t.Fatal(err)
			}
			got, res, err := persist.RecoverIndex(dir, mkIndex)
			if err != nil || got.Len() != n {
				t.Fatalf("recovered %d, want %d (%v)", got.Len(), n, err)
			}
			if res.LastLSN != last {
				t.Fatalf("recovery LastLSN = %d, want %d", res.LastLSN, last)
			}
		})
	}
}

// TestCommitInlineUnderNonGroupPolicies: Commit is a universal durability
// barrier — under policies without a syncer it syncs inline instead of
// parking, so WAIT-style callers can rely on it regardless of -fsync.
func TestCommitInlineUnderNonGroupPolicies(t *testing.T) {
	for _, pol := range []persist.FsyncPolicy{persist.FsyncNo, persist.FsyncEverySec, persist.FsyncAlways} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			wal, err := persist.OpenWAL(dir, persist.WALOptions{Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			defer wal.Close()
			var last uint64
			for i := 0; i < 10; i++ {
				if last, err = wal.Append(persist.OpSet, "", u64key(uint64(i)), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := wal.Commit(last); err != nil {
				t.Fatal(err)
			}
			if d := wal.DurableLSN(); d < last {
				t.Fatalf("DurableLSN = %d after Commit(%d)", d, last)
			}
			if err := wal.Commit(last + 1); err == nil {
				t.Fatal("Commit past the last assigned LSN must error, not park forever")
			}
		})
	}
}

// TestFsyncFailureIsStickyUnderEveryPolicy: one failed fsync poisons the
// WAL whichever path issued it — always's per-append sync, Commit's inline
// sync (everysec/no), or the group syncer. Once an fsync has failed the
// kernel may have dropped the dirty pages, so a later fsync that succeeds
// must not acknowledge anything: Append, Commit of the record whose sync
// failed, Sync and Close all keep returning the injected error, and the
// durable watermark never advances past it.
func TestFsyncFailureIsStickyUnderEveryPolicy(t *testing.T) {
	for _, pol := range []persist.FsyncPolicy{
		persist.FsyncAlways, persist.FsyncEverySec, persist.FsyncNo, persist.FsyncGroup, persist.FsyncAsync,
	} {
		t.Run(pol.String(), func(t *testing.T) {
			injected := errors.New("injected fsync failure")
			var armed atomic.Bool
			wal, err := persist.OpenWAL(t.TempDir(), persist.WALOptions{
				Policy: pol,
				FsyncFn: func(f *os.File) error {
					if armed.CompareAndSwap(true, false) {
						return injected // exactly once
					}
					return f.Sync()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			armed.Store(true)
			lsn, err := wal.Append(persist.OpSet, "", []byte("k"), 1)
			if err == nil {
				err = wal.Commit(lsn)
			}
			if !errors.Is(err, injected) {
				t.Fatalf("first Append+Commit = %v, want the injected error", err)
			}
			last := wal.LSN()
			if _, err := wal.Append(persist.OpSet, "", []byte("after"), 2); !errors.Is(err, injected) {
				t.Fatalf("Append after the failed fsync = %v, want the sticky error", err)
			}
			if err := wal.Commit(last); !errors.Is(err, injected) {
				t.Fatalf("Commit(%d) after the failed fsync = %v, want the sticky error", last, err)
			}
			if err := wal.Sync(); !errors.Is(err, injected) {
				t.Fatalf("Sync after the failed fsync = %v, want the sticky error", err)
			}
			if err := wal.Close(); !errors.Is(err, injected) {
				t.Fatalf("Close after the failed fsync = %v, want the sticky error", err)
			}
			if d := wal.DurableLSN(); d >= last {
				t.Fatalf("DurableLSN = %d after Close, want < %d (its sync failed)", d, last)
			}
		})
	}
}

// TestAsyncDurableWatermark: FsyncAsync promises the watermark catches up
// on its own — no Commit, no Sync — within a few group cycles.
func TestAsyncDurableWatermark(t *testing.T) {
	dir := t.TempDir()
	wal, err := persist.OpenWAL(dir, persist.WALOptions{Policy: persist.FsyncAsync})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	var last uint64
	for i := 0; i < 20; i++ {
		if last, err = wal.Append(persist.OpSet, "", u64key(uint64(i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for wal.DurableLSN() < last {
		if time.Now().After(deadline) {
			t.Fatalf("DurableLSN stuck at %d, want ≥ %d", wal.DurableLSN(), last)
		}
		time.Sleep(time.Millisecond)
	}
	if got := wal.AppendedBytes(); got <= 0 {
		t.Fatalf("AppendedBytes = %d, want > 0", got)
	}
}
