// Package lockorder is the analyzer's fixture: rank inversions (including
// the historical cmdMu-after-saveMu shape), self-reacquisition, stripe
// arrays in both directions, the //ctvet:holds annotation, the
// //ctvet:ignore escape hatch, the group-commit park-on-LSN protocol
// (WAL.Commit must not park while a lock the append path needs is held),
// and the one-level call-graph propagation (a helper that locks or parks
// is flagged at the call site of a caller holding a conflicting lock).
package lockorder

import (
	"persist"
	"sync"
)

type server struct {
	cmdMu    sync.Mutex
	saveMu   sync.Mutex
	replMu   sync.RWMutex
	stripes  []sync.Mutex
	writeMus []sync.Mutex
	wal      *persist.WAL
}

func correctOrder(s *server) {
	s.cmdMu.Lock()
	s.saveMu.Lock()
	s.saveMu.Unlock()
	s.cmdMu.Unlock()
}

func inverted(s *server) {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	s.cmdMu.Lock() // want `acquires cmdMu \(rank 10\) while holding saveMu \(rank 30\)`
	defer s.cmdMu.Unlock()
}

func releaseThenTake(s *server) {
	s.saveMu.Lock()
	s.saveMu.Unlock()
	s.cmdMu.Lock() // no finding: saveMu was released before cmdMu was taken
	s.cmdMu.Unlock()
}

func reacquire(s *server) {
	s.cmdMu.Lock()
	s.cmdMu.Lock() // want `reacquires cmdMu already held`
	s.cmdMu.Unlock()
}

func rlockCountsToo(s *server) {
	s.replMu.RLock()
	s.saveMu.Lock() // want `acquires saveMu \(rank 30\) while holding replMu \(rank 40\)`
	s.saveMu.Unlock()
	s.replMu.RUnlock()
}

func ascendingStripes(s *server) {
	for i := 0; i < len(s.stripes); i++ {
		s.stripes[i].Lock()
	}
	for i := 0; i < len(s.stripes); i++ {
		s.stripes[i].Unlock()
	}
}

func descendingStripes(s *server) {
	for i := len(s.stripes) - 1; i >= 0; i-- {
		s.stripes[i].Lock() // want `stripes acquired under a descending loop over "i"`
	}
}

func constIndexInversion(s *server) {
	s.stripes[2].Lock()
	s.stripes[1].Lock() // want `acquires stripes\[1\] while already holding stripes\[2\]`
	s.stripes[1].Unlock()
	s.stripes[2].Unlock()
}

func constIndexAscending(s *server) {
	s.stripes[1].Lock()
	s.stripes[2].Lock()
	s.stripes[2].Unlock()
	s.stripes[1].Unlock()
}

// calleeWithHolds relies on its caller holding cmdMu; taking saveMu on top
// respects the order, so declaring the held lock keeps it clean.
//
//ctvet:holds cmdMu
func calleeWithHolds(s *server) {
	s.saveMu.Lock()
	s.saveMu.Unlock()
}

// holdsThenInvert declares saveMu held, so taking cmdMu is an inversion
// even though this body performs only one acquisition itself.
//
//ctvet:holds saveMu
func holdsThenInvert(s *server) {
	s.cmdMu.Lock() // want `acquires cmdMu \(rank 10\) while holding saveMu \(rank 30\)`
	s.cmdMu.Unlock()
}

func suppressedInversion(s *server) {
	s.saveMu.Lock()
	s.cmdMu.Lock() //ctvet:ignore fixture: deliberate inversion proving the escape hatch suppresses it
	s.cmdMu.Unlock()
	s.saveMu.Unlock()
}

func goroutineHasOwnDiscipline(s *server) {
	s.saveMu.Lock()
	go func() {
		s.cmdMu.Lock() // no finding: the goroutine body is its own lock scope
		s.cmdMu.Unlock()
	}()
	s.saveMu.Unlock()
}

// parkUnderCmdMu is the serial-dispatch deadlock shape: a writer parked
// under cmdMu blocks every other writer's append, so the syncer never
// gets the batch that would release the parker.
func parkUnderCmdMu(s *server) {
	s.cmdMu.Lock()
	s.wal.Commit(7) // want `parks on \(persist\.WAL\)\.Commit while holding cmdMu`
	s.cmdMu.Unlock()
}

// parkUnderStripe starves every writer hashing to the held stripe.
func parkUnderStripe(s *server) {
	s.writeMus[1].Lock()
	s.wal.Commit(7) // want `parks on \(persist\.WAL\)\.Commit while holding writeMus`
	s.writeMus[1].Unlock()
}

// parkAfterRelease is the correct ack-barrier shape: apply+append under
// the locks, release everything, then park on the batch's last LSN.
func parkAfterRelease(s *server) {
	s.cmdMu.Lock()
	lsn, _ := s.wal.Append(1, nil, nil, nil)
	s.cmdMu.Unlock()
	s.wal.Commit(lsn) // no finding: every append-path lock was released first
}

// parkUnderSaveMu is clean: the append path never takes saveMu, so a
// snapshot-holding caller may park without starving the syncer.
func parkUnderSaveMu(s *server) {
	s.saveMu.Lock()
	s.wal.Commit(7)
	s.saveMu.Unlock()
}

func suppressedPark(s *server) {
	s.cmdMu.Lock()
	s.wal.Commit(7) //ctvet:ignore fixture: deliberate park proving the escape hatch suppresses it
	s.cmdMu.Unlock()
}

// --- one-level call-graph propagation ---

// parkHelper parks directly; on its own that is fine (no lock held here).
func parkHelper(s *server) {
	s.wal.Commit(7)
}

// callsParkHelperUnderStripe is the shape the propagation exists for: the
// park moved one call down, the caller still holds an append-path lock.
func callsParkHelperUnderStripe(s *server) {
	s.writeMus[1].Lock()
	parkHelper(s) // want `calls parkHelper, which parks on \(persist\.WAL\)\.Commit, while holding writeMus`
	s.writeMus[1].Unlock()
}

// callsParkHelperAfterRelease is the correct shape: the helper parks only
// after every append-path lock is released.
func callsParkHelperAfterRelease(s *server) {
	s.writeMus[1].Lock()
	s.writeMus[1].Unlock()
	parkHelper(s)
}

// takesCmdMu acquires cmdMu directly.
func takesCmdMu(s *server) {
	s.cmdMu.Lock()
	s.cmdMu.Unlock()
}

// callsCmdHelperUnderSaveMu: the helper's acquisition inverts the order
// against the caller's held lock.
func callsCmdHelperUnderSaveMu(s *server) {
	s.saveMu.Lock()
	takesCmdMu(s) // want `calls takesCmdMu, which acquires cmdMu \(rank 10\) while saveMu \(rank 30\) is held here`
	s.saveMu.Unlock()
}

// callsCmdHelperUnderCmdMu: the helper reacquires the caller's Mutex —
// a guaranteed self-deadlock.
func callsCmdHelperUnderCmdMu(s *server) {
	s.cmdMu.Lock()
	takesCmdMu(s) // want `calls takesCmdMu, which acquires cmdMu already held here \(self-deadlock for a Mutex\)`
	s.cmdMu.Unlock()
}

// takesSaveMu acquires saveMu directly.
func takesSaveMu(s *server) {
	s.saveMu.Lock()
	s.saveMu.Unlock()
}

// callsDownTheOrder is clean: the helper's lock ranks above the held one,
// the direction the order allows.
func callsDownTheOrder(s *server) {
	s.cmdMu.Lock()
	takesSaveMu(s)
	s.cmdMu.Unlock()
}

// bgParkHelper parks only on a goroutine it spawns; the spawning call
// returns immediately, so a caller holding a lock is NOT parked.
func bgParkHelper(s *server) {
	go func() {
		s.wal.Commit(7)
	}()
}

func callsBgParkHelperUnderStripe(s *server) {
	s.writeMus[1].Lock()
	bgParkHelper(s) // no finding: the helper's park runs on its own goroutine
	s.writeMus[1].Unlock()
}

// suppressedHelperPark proves the escape hatch covers propagated findings.
func suppressedHelperPark(s *server) {
	s.cmdMu.Lock()
	parkHelper(s) //ctvet:ignore fixture: deliberate propagated park proving suppression
	s.cmdMu.Unlock()
}

// holdsCallsCmdHelper: a declared hold counts for propagation exactly as a
// real acquisition would.
//
//ctvet:holds saveMu
func holdsCallsCmdHelper(s *server) {
	takesCmdMu(s) // want `calls takesCmdMu, which acquires cmdMu \(rank 10\) while saveMu \(rank 30\) is held here`
}
