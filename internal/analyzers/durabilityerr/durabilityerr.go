// Package durabilityerr checks that the error results of the repo's
// durability-critical calls are consumed, never discarded.
//
// The server's durability contract (PR 5/6) is "a WAL failure is an error
// reply, never a silent ack": a write is acknowledged only after its WAL
// append (and, for fsync=always/group, its Commit) succeeded. A dropped
// error on any link of that chain — the append, the commit, the snapshot write, the
// WAL close, or the RESP reply write that carries the ack — silently
// converts a non-durable write into an acknowledged one. Unlike a race,
// that bug produces no crash and no detector report; it only shows up as
// missing data after the wrong power cut.
//
// The watched-call table below names the methods whose error result is
// load-bearing. Discarding one — as a bare statement, via `_ =`, or
// behind go/defer (where the error is unobservable) — is flagged. Sites
// where the drop is genuinely correct (teardown paths writing a
// best-effort error reply) carry //ctvet:ignore with the reason.
package durabilityerr

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analyzers/analysis"
)

// watched names one durability-critical function or method: the package
// (matched by import-path suffix so testdata stubs qualify), the receiver
// type for methods ("" for package functions), and the name. Adding a
// durability-critical call is one line here.
type watched struct {
	pkg  string // import path suffix, e.g. "persist"
	recv string // named receiver type, "" for plain functions
	name string
}

var watchedCalls = []watched{
	// WAL: the write path itself.
	{"persist", "WAL", "Append"},
	{"persist", "WAL", "Commit"}, // the group-commit ack barrier: a dropped error acks an unsynced pipeline
	{"persist", "WAL", "Close"},  // close = final flush+fsync: a dropped error loses the tail
	// Snapshots.
	{"persist", "", "WriteSnapshot"},
	{"persist", "", "SaveIndex"},
	// RESP reply writes: the ack's last hop to the client.
	{"resp", "Writer", "Flush"},
	{"resp", "Writer", "WriteCommand"},
	{"resp", "Writer", "WriteRaw"},
	// Server close drains background saves and closes the WAL.
	{"miniredis", "Server", "Close"},
	// Figure emission: a dropped error silently truncates a recorded
	// benchmark run — the observability analog of an unacked write.
	{"bench", "Report", "WriteJSON"},
}

var Analyzer = &analysis.Analyzer{
	Name: "durabilityerr",
	Doc: "check that errors from WAL append/sync/close, snapshot writes " +
		"and RESP reply writes are consumed (a dropped error acks a write " +
		"that was never durable)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					if name := watchedCall(pass, call); name != "" && errorResultIndex(pass, call) >= 0 {
						pass.Reportf(call.Pos(),
							"error from %s is discarded; on the durability path a dropped error acks a write that was never durable", name)
					}
				}
			case *ast.DeferStmt:
				if name := watchedCall(pass, st.Call); name != "" && errorResultIndex(pass, st.Call) >= 0 {
					pass.Reportf(st.Pos(),
						"error from deferred %s is unobservable; close/flush explicitly and check the error", name)
				}
			case *ast.GoStmt:
				if name := watchedCall(pass, st.Call); name != "" && errorResultIndex(pass, st.Call) >= 0 {
					pass.Reportf(st.Pos(),
						"error from %s in a go statement is unobservable; run it synchronously or plumb the error back", name)
				}
			case *ast.AssignStmt:
				checkAssign(pass, st)
			}
			return true
		})
	}
	return nil
}

// checkAssign flags watched calls whose error result lands in the blank
// identifier: `_ = w.Flush()` and `lsn, _ := wal.Append(...)` both erase
// the only evidence the write failed.
func checkAssign(pass *analysis.Pass, st *ast.AssignStmt) {
	// Single call, possibly multi-value: x, _ := call().
	if len(st.Rhs) == 1 {
		if call, ok := st.Rhs[0].(*ast.CallExpr); ok {
			name := watchedCall(pass, call)
			if name == "" {
				return
			}
			if errIdx := errorResultIndex(pass, call); errIdx >= 0 && errIdx < len(st.Lhs) {
				if id, ok := st.Lhs[errIdx].(*ast.Ident); ok && id.Name == "_" {
					pass.Reportf(st.Pos(),
						"error from %s is assigned to _; on the durability path a dropped error acks a write that was never durable", name)
				}
			}
			return
		}
	}
	// Parallel form: a, b := f(), g().
	if len(st.Lhs) == len(st.Rhs) {
		for i, rhs := range st.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			name := watchedCall(pass, call)
			if name == "" {
				continue
			}
			if id, ok := st.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
				pass.Reportf(st.Pos(),
					"error from %s is assigned to _; on the durability path a dropped error acks a write that was never durable", name)
			}
		}
	}
}

// errorResultIndex returns the index of the last error in the call's
// result tuple, -1 if none.
func errorResultIndex(pass *analysis.Pass, call *ast.CallExpr) int {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return -1
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := t.Len() - 1; i >= 0; i-- {
			if isErrorType(t.At(i).Type()) {
				return i
			}
		}
		return -1
	default:
		if isErrorType(tv.Type) {
			return 0
		}
		return -1
	}
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// watchedCall resolves a call's callee and returns a printable name like
// "(persist.WAL).Append" when it is in the watched table, "" otherwise.
func watchedCall(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = recvTypeName(sig.Recv().Type())
	}
	for _, w := range watchedCalls {
		if w.name != fn.Name() || w.recv != recv || !pkgIs(fn.Pkg(), w.pkg) {
			continue
		}
		if recv != "" {
			return "(" + w.pkg + "." + recv + ")." + w.name
		}
		return w.pkg + "." + w.name
	}
	return ""
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// pkgIs matches a package against a table entry by import-path suffix:
// the real repro/internal/persist, a vendored copy, and a testdata stub
// named persist all qualify.
func pkgIs(pkg *types.Package, name string) bool {
	path := pkg.Path()
	return path == name || strings.HasSuffix(path, "/"+name)
}
