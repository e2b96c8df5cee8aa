// Package durabilityerr is the analyzer's fixture: discarded, blanked,
// deferred and goroutine-lost errors from the watched durability calls,
// plus properly consumed negatives and the //ctvet:ignore escape hatch.
package durabilityerr

import (
	"bench"
	"persist"
	"resp"
)

func discards(w *persist.WAL, rw *resp.Writer, rep bench.Report) {
	w.Commit(7)                // want `error from \(persist\.WAL\)\.Commit is discarded`
	rw.Flush()                 // want `error from \(resp\.Writer\)\.Flush is discarded`
	rw.WriteRaw(nil)           // want `error from \(resp\.Writer\)\.WriteRaw is discarded`
	persist.WriteSnapshot("x") // want `error from persist\.WriteSnapshot is discarded`
	rep.WriteJSON(nil)         // want `error from \(bench\.Report\)\.WriteJSON is discarded`
}

func blanks(w *persist.WAL, rw *resp.Writer) {
	_ = w.Commit(7)         // want `error from \(persist\.WAL\)\.Commit is assigned to _`
	lsn, _ := w.Append(nil) // want `error from \(persist\.WAL\)\.Append is assigned to _`
	_ = lsn
	_ = rw.WriteCommand(nil) // want `error from \(resp\.Writer\)\.WriteCommand is assigned to _`
}

func blankedReport(rep bench.Report) {
	_ = rep.WriteJSON(nil) // want `error from \(bench\.Report\)\.WriteJSON is assigned to _`
}

func consumedReport(rep bench.Report) error {
	return rep.WriteJSON(nil)
}

func unobservable(w *persist.WAL, rw *resp.Writer) {
	defer w.Close() // want `error from deferred \(persist\.WAL\)\.Close is unobservable`
	go rw.Flush()   // want `error from \(resp\.Writer\)\.Flush in a go statement is unobservable`
}

func consumed(w *persist.WAL, rw *resp.Writer) error {
	if _, err := w.Append(nil); err != nil {
		return err
	}
	if err := w.Commit(7); err != nil {
		return err
	}
	if err := rw.WriteCommand(nil); err != nil {
		return err
	}
	return rw.Flush()
}

func deferredClosureIsFine(w *persist.WAL) (err error) {
	defer func() {
		if cerr := w.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return w.Commit(7)
}

func suppressed(rw *resp.Writer) {
	rw.Flush() //ctvet:ignore fixture: teardown flush is best-effort by design
}
