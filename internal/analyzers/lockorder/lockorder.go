// Package lockorder encodes the repo's lock-ordering facts and flags
// same-function acquisitions that contradict them.
//
// The server's deadlock-freedom argument is a single global order:
//
//	cmdMu → bulkMu → saveMu → replMu → stripe locks (ascending index)
//
// (miniredis.Server and keyspace; see the comments on Server's fields).
// The race detector only notices an inversion on an interleaving that
// actually deadlocks or races; this analyzer rejects the inversion on any
// path, in any build, by rank-checking every Lock/RLock a function
// performs while an earlier table lock is still held. Stripe-style lock
// arrays (keyspace.stripes, Server.writeMus) must additionally be
// acquired in ascending index order: a descending loop over them, or
// constant indices acquired out of order, is flagged.
//
// The walk within one function is intraprocedural, plus ONE level of
// call-graph propagation: every function gets a summary of the table
// locks its body acquires directly and whether it parks directly, and a
// call made while a table lock is held is checked against the callee's
// summary. That is the depth a helper extraction needs — a function that
// holds cmdMu and calls a helper that re-took it or parked on WAL.Commit
// would slip through a purely intraprocedural walk. Deeper chains still
// collapse to single-lock functions that pass vacuously. New locks are one
// line in the tables below. //ctvet:ignore <reason> suppresses a finding;
// a function whose caller guarantees a lock is held can declare
// //ctvet:holds <lock> on the line above its declaration.
//
// Group commit adds a second protocol on top of the order: WAL.Commit
// PARKS the calling goroutine until the group syncer's fsync covers its
// LSN. The syncer only ever takes the WAL's own mutex, so a writer that
// parks while holding a lock the append path needs — cmdMu on a serial
// server, a per-stripe write mutex, a keyspace stripe — stalls the very
// writers whose records would share its fsync: best case the batch
// degrades to one writer per cycle, worst case (serial dispatch behind
// cmdMu) nothing ever feeds the syncer again. The parkCalls table flags
// any park performed while one of those locks is held in the same
// function; the ack barrier belongs after dispatch releases them and
// before the reply flush.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/analyzers/analysis"
)

// lockRank is the registry of ordered locks: a lock may only be acquired
// while every held table lock has a strictly smaller rank. Registering a
// new lock is one line here.
var lockRank = map[string]int{
	"cmdMu":  10,
	"bulkMu": 20,
	"saveMu": 30,
	"replMu": 40,
	// Lock arrays: rank applies to the whole array; ascending-index
	// acquisition within the array is checked separately.
	"writeMus": 50,
	"stripes":  50,
}

// lockArrays marks the table locks that are arrays of locks (indexed
// acquisition, ascending order required).
var lockArrays = map[string]bool{
	"writeMus": true,
	"stripes":  true,
}

// requiresHeld maps a lock to another lock that must already be held when
// it is acquired. The repo's current order is positional, not possessive
// — BGSAVE legitimately takes saveMu without cmdMu when the engine is
// concurrent-safe — so the table is empty here, but the mechanism is
// exercised by the fixtures and ready for locks with a hard holder
// requirement. //ctvet:holds <lock> on a function declaration satisfies
// the requirement for callees whose callers take the lock.
var requiresHeld = map[string]string{}

// parkCall names one call that parks its goroutine on the group syncer's
// durability watermark, matched by import-path suffix (so testdata stubs
// qualify), receiver type, and method name — the same resolution the
// durabilityerr analyzer uses.
type parkCall struct {
	pkg  string // import path suffix, e.g. "persist"
	recv string // named receiver type
	name string
}

// parkCalls is the registry of parking calls. WAL.Commit blocks until a
// coalesced fsync covers the given LSN; under fsync=group that fsync only
// happens once enough writers have appended, so the caller must not be
// holding anything those writers need.
var parkCalls = []parkCall{
	{"persist", "WAL", "Commit"},
}

// parkForbids lists the table locks the append path needs and that are
// therefore forbidden across a park: cmdMu serializes dispatch on serial
// servers (a park under it starves the syncer outright), and the
// writeMus/stripes arrays serialize per-key apply+append.
var parkForbids = []string{"cmdMu", "writeMus", "stripes"}

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "check Lock/RLock sequences against the repo's global lock order " +
		"(cmdMu → bulkMu → saveMu → replMu → stripe locks ascending), " +
		"with one-level call-graph propagation, and that WAL.Commit never " +
		"parks — directly or one call deep — while a lock the append path needs is held",
	Run: run,
}

func run(pass *analysis.Pass) error {
	sums := newSummaries(pass)
	for _, file := range pass.Files {
		holds := holdsDirectives(pass, file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			st := &state{pass: pass, sums: sums, held: map[string]heldLock{}}
			for _, h := range holds[fn] {
				st.held[h] = heldLock{rank: lockRank[h], declared: true}
			}
			st.stmts(fn.Body.List)
		}
	}
	return nil
}

// funcSummary records what one function's body does DIRECTLY: the table
// locks it acquires (first-seen order) and the first park it performs.
// Goroutine bodies and nested function literals are excluded — they run
// under their own lock discipline, exactly as in the main walk.
type funcSummary struct {
	acquires []string
	parks    string // printable park-call name, "" when the body never parks
}

// summaries resolves same-package callees to their declarations and
// lazily summarizes them — the one-level call-graph propagation. A
// summary covers only the callee's direct body, never ITS callees:
// deeper chains are out of scope by design (each hop collapses to a
// single-lock function the intraprocedural walk already covers).
type summaries struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	cache map[*types.Func]*funcSummary
}

func newSummaries(pass *analysis.Pass) *summaries {
	sm := &summaries{
		pass:  pass,
		decls: map[*types.Func]*ast.FuncDecl{},
		cache: map[*types.Func]*funcSummary{},
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
				sm.decls[obj] = fn
			}
		}
	}
	return sm
}

// of returns a call's static callee and its summary; the summary is nil
// when the callee is not a function declared in the analyzed package
// (cross-package calls, indirect calls, mutex methods).
func (sm *summaries) of(call *ast.CallExpr) (*types.Func, *funcSummary) {
	fn := calleeFunc(sm.pass, call)
	if fn == nil {
		return nil, nil
	}
	decl, ok := sm.decls[fn]
	if !ok {
		return fn, nil
	}
	sum, ok := sm.cache[fn]
	if !ok {
		sum = summarize(sm.pass, decl)
		sm.cache[fn] = sum
	}
	return fn, sum
}

func summarize(pass *analysis.Pass, decl *ast.FuncDecl) *funcSummary {
	sum := &funcSummary{}
	seen := map[string]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if name, method, _ := lockCall(n); name != "" && isAcquire(method) && !seen[name] {
				seen[name] = true
				sum.acquires = append(sum.acquires, name)
			}
			if sum.parks == "" {
				sum.parks = parkedCall(pass, n)
			}
		}
		return true
	})
	return sum
}

// holdsDirectives collects //ctvet:holds <lock> comments attached to
// function declarations.
func holdsDirectives(pass *analysis.Pass, file *ast.File) map[*ast.FuncDecl][]string {
	out := map[*ast.FuncDecl][]string{}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Doc == nil {
			continue
		}
		for _, c := range fn.Doc.List {
			rest, ok := strings.CutPrefix(c.Text, "//ctvet:holds")
			if !ok {
				continue
			}
			for _, name := range strings.Fields(rest) {
				if _, known := lockRank[name]; !known {
					pass.Reportf(c.Pos(), "ctvet:holds names unknown lock %q (register it in lockorder's table)", name)
					continue
				}
				out[fn] = append(out[fn], name)
			}
		}
	}
	return out
}

type heldLock struct {
	rank     int
	pos      token.Pos
	declared bool // from //ctvet:holds, not an acquisition in this body
	// lastIdx is the largest constant index acquired so far for a lock
	// array (-1 when no constant index has been seen).
	lastIdx    int
	lastIdxPos token.Pos
}

type state struct {
	pass *analysis.Pass
	sums *summaries
	held map[string]heldLock
}

// stmts walks a statement list in order, tracking the held-lock set. The
// walk descends into nested blocks with the same (shared) state: within
// one function the repo's lock acquisitions are straight-line, and a
// shared set errs on the side of reporting.
func (s *state) stmts(list []ast.Stmt) {
	for _, stmt := range list {
		s.stmt(stmt)
	}
}

func (s *state) stmt(stmt ast.Stmt) {
	switch st := stmt.(type) {
	case *ast.ExprStmt:
		s.expr(st.X, false)
	case *ast.DeferStmt:
		// defer x.Unlock() keeps the lock held to function end — exactly
		// what the ordering check wants — so releases are only honored for
		// direct Unlock statements.
		s.call(st.Call, true)
	case *ast.GoStmt:
		// A goroutine body runs under its own lock discipline.
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			sub := &state{pass: s.pass, sums: s.sums, held: map[string]heldLock{}}
			sub.stmts(lit.Body.List)
		}
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			s.expr(rhs, false)
		}
	case *ast.BlockStmt:
		s.stmts(st.List)
	case *ast.IfStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		s.expr(st.Cond, false)
		s.stmts(st.Body.List)
		if st.Else != nil {
			s.stmt(st.Else)
		}
	case *ast.ForStmt:
		desc := descendingLoopVar(st)
		s.checkLoop(st.Body, desc, st.Pos())
	case *ast.RangeStmt:
		// range over an array/slice ascends by construction.
		s.stmts(st.Body.List)
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.stmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				s.stmts(cc.Body)
			}
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			s.expr(r, false)
		}
	case *ast.LabeledStmt:
		s.stmt(st.Stmt)
	}
}

// expr looks for lock-method calls (and function literals) inside an
// expression.
func (s *state) expr(e ast.Expr, deferred bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			s.call(n, deferred)
		case *ast.FuncLit:
			sub := &state{pass: s.pass, sums: s.sums, held: map[string]heldLock{}}
			sub.stmts(n.Body.List)
			return false
		}
		return true
	})
}

// checkLoop flags indexed acquisitions of a lock array inside a loop that
// walks its index variable downward.
func (s *state) checkLoop(body *ast.BlockStmt, descVar string, loopPos token.Pos) {
	if descVar != "" {
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, method, idx := lockCall(call)
			if name == "" || !lockArrays[name] || !isAcquire(method) {
				return true
			}
			if id, ok := idx.(*ast.Ident); ok && id.Name == descVar {
				s.pass.Reportf(call.Pos(),
					"%s acquired under a descending loop over %q; stripe locks must be taken in ascending index order (see keyspace.lockAll)",
					name, descVar)
			}
			return true
		})
	}
	s.stmts(body.List)
}

// descendingLoopVar reports the index variable of a `for i := hi; ...; i--`
// style loop ("" when the loop does not descend).
func descendingLoopVar(st *ast.ForStmt) string {
	switch post := st.Post.(type) {
	case *ast.IncDecStmt:
		if post.Tok == token.DEC {
			if id, ok := post.X.(*ast.Ident); ok {
				return id.Name
			}
		}
	case *ast.AssignStmt:
		if post.Tok == token.SUB_ASSIGN && len(post.Lhs) == 1 {
			if id, ok := post.Lhs[0].(*ast.Ident); ok {
				return id.Name
			}
		}
	}
	return ""
}

// call classifies one call expression, updating the held set and
// reporting violations.
func (s *state) call(call *ast.CallExpr, deferred bool) {
	if park := parkedCall(s.pass, call); park != "" {
		for _, lock := range parkForbids {
			if _, held := s.held[lock]; held {
				s.pass.Reportf(call.Pos(),
					"parks on %s while holding %s; a parked writer must not hold any lock the append path needs — release it before the ack barrier (see miniredis serve)",
					park, lock)
			}
		}
	}
	name, method, idx := lockCall(call)
	if name == "" {
		s.checkCallee(call)
		return
	}
	switch {
	case isAcquire(method):
		s.acquire(name, idx, call.Pos())
	case method == "Unlock" || method == "RUnlock":
		if !deferred {
			delete(s.held, name)
		}
	}
}

// checkCallee is the one-level call-graph propagation: a call made while
// a table lock is held is checked against what the callee's body does
// directly — parking, reacquiring a held Mutex, or taking a lock that
// contradicts the order. Same-name array locks are skipped (the callee's
// index is unknowable here); deferred calls are checked like immediate
// ones, erring on the side of reporting, matching how deferred Unlocks
// keep a lock held for the rest of the walk.
func (s *state) checkCallee(call *ast.CallExpr) {
	if len(s.held) == 0 || s.sums == nil {
		return
	}
	fn, sum := s.sums.of(call)
	if sum == nil {
		return
	}
	if sum.parks != "" {
		for _, lock := range parkForbids {
			if _, held := s.held[lock]; held {
				s.pass.Reportf(call.Pos(),
					"calls %s, which parks on %s, while holding %s; a parked writer must not hold any lock the append path needs",
					fn.Name(), sum.parks, lock)
			}
		}
	}
	for _, name := range sum.acquires {
		rank := lockRank[name]
		for heldName, h := range s.held {
			if heldName == name {
				if !lockArrays[name] && !h.declared {
					s.pass.Reportf(call.Pos(),
						"calls %s, which acquires %s already held here (self-deadlock for a Mutex)",
						fn.Name(), name)
				}
				continue
			}
			if h.rank >= rank {
				s.pass.Reportf(call.Pos(),
					"calls %s, which acquires %s (rank %d) while %s (rank %d) is held here; the repo lock order is cmdMu → bulkMu → saveMu → replMu → stripe locks",
					fn.Name(), name, rank, heldName, h.rank)
			}
		}
	}
}

func isAcquire(method string) bool {
	return method == "Lock" || method == "RLock" || method == "TryLock" || method == "TryRLock"
}

func (s *state) acquire(name string, idx ast.Expr, pos token.Pos) {
	rank := lockRank[name]
	// Rank check against everything currently held.
	for heldName, h := range s.held {
		if heldName == name {
			continue // array locks and upgrades handled below
		}
		if h.rank >= rank {
			s.pass.Reportf(pos,
				"acquires %s (rank %d) while holding %s (rank %d); the repo lock order is cmdMu → bulkMu → saveMu → replMu → stripe locks",
				name, rank, heldName, h.rank)
		}
	}
	// Holder requirement.
	if req, ok := requiresHeld[name]; ok {
		if _, held := s.held[req]; !held {
			s.pass.Reportf(pos,
				"acquires %s without holding %s (required; annotate the function //ctvet:holds %s if the caller guarantees it)",
				name, req, req)
		}
	}
	prev, already := s.held[name]
	if already && !lockArrays[name] && !prev.declared {
		s.pass.Reportf(pos, "reacquires %s already held since %s (self-deadlock for a Mutex)",
			name, s.pass.Fset.Position(prev.pos))
	}
	h := heldLock{rank: rank, pos: pos, lastIdx: -1}
	if already {
		h.lastIdx, h.lastIdxPos = prev.lastIdx, prev.lastIdxPos
	}
	// Ascending-index check for lock arrays with constant indices.
	if lockArrays[name] {
		if c, ok := constIndex(idx); ok {
			if h.lastIdx >= 0 && c <= h.lastIdx {
				s.pass.Reportf(pos,
					"acquires %s[%d] while already holding %s[%d]; stripe locks must be taken in ascending index order",
					name, c, name, h.lastIdx)
			}
			h.lastIdx, h.lastIdxPos = c, pos
		}
	}
	s.held[name] = h
}

func constIndex(idx ast.Expr) (int, bool) {
	lit, ok := idx.(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return 0, false
	}
	n, err := strconv.Atoi(lit.Value)
	if err != nil {
		return 0, false
	}
	return n, true
}

// lockCall decomposes expr.(...).Lock()-shaped calls: it returns the
// registered lock's table name, the method name, and the index expression
// for indexed (stripe array) acquisitions. name is "" for calls that do
// not target a registered lock.
func lockCall(call *ast.CallExpr) (name, method string, idx ast.Expr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", nil
	}
	method = sel.Sel.Name
	if !isAcquire(method) && method != "Unlock" && method != "RUnlock" {
		return "", "", nil
	}
	// Walk the receiver chain (s.ks.stripes[i].mu → mu, stripes[i],
	// stripes, ks, s) looking for the innermost registered name.
	for e := sel.X; e != nil; {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if _, ok := lockRank[x.Sel.Name]; ok {
				return x.Sel.Name, method, idx
			}
			e = x.X
		case *ast.IndexExpr:
			idx = x.Index
			e = x.X
		case *ast.Ident:
			if _, ok := lockRank[x.Name]; ok {
				return x.Name, method, idx
			}
			return "", "", nil
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			return "", "", nil
		default:
			return "", "", nil
		}
	}
	return "", "", nil
}

// parkedCall resolves a call's callee against the parkCalls table,
// returning a printable name like "(persist.WAL).Commit" when it parks,
// "" otherwise. Resolution is by type, not field name: any expression
// whose static callee is the registered method matches, however the WAL
// is reached.
func parkedCall(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	recv := recvTypeName(sig.Recv().Type())
	for _, p := range parkCalls {
		if p.name == fn.Name() && p.recv == recv && pkgIs(fn.Pkg(), p.pkg) {
			return "(" + p.pkg + "." + p.recv + ")." + p.name
		}
	}
	return ""
}

// calleeFunc resolves a call expression to its static *types.Func, nil
// when the callee is not a named function/method (indirect calls,
// conversions).
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
// the real repro/internal/persist and a testdata stub named persist both
// qualify.
func pkgIs(pkg *types.Package, name string) bool {
	path := pkg.Path()
	return path == name || strings.HasSuffix(path, "/"+name)
}
