// Package lockscope enforces the lock discipline of the serving hot
// path and its write-ahead log: in internal/shard and internal/wal,
//
//   - fields guarded by a struct's mutex must only be touched while that
//     mutex is held, and
//   - exact similarity verification (similarity.Measure.Sim) must not
//     run while a mutex of those packages is held.
//
// internal/index is out of scope: its Index has no mutex, as its callers
// serialize writes against queries, so its Sim verification runs under
// the caller's read lock by design and there is nothing there to guard.
//
// Which fields a mutex guards follows the codebase's layout convention:
// in a struct with a sync.Mutex/sync.RWMutex field, the fields of the
// same declaration paragraph following the mutex (contiguous lines,
// field doc comments included, up to the first blank line) are guarded.
//
// The analysis is a source-order scan of each method body, tracking
// Lock/RLock/Unlock/RUnlock calls on the receiver's mutex (a deferred
// Unlock holds to the end of the function). Methods whose name ends in
// "Locked" are, by the codebase's convention, documented as called with
// the lock held and are scanned as such. Function literals are scanned
// as NOT holding the lock — a goroutine does not inherit its spawner's
// critical section; the rare synchronous closure under a lock needs a
// suppression.
package lockscope

import (
	"go/ast"
	"go/types"
	"strings"

	"vsmartjoin/internal/lint"
)

// Analyzer is the lockscope checker.
var Analyzer = &lint.Analyzer{
	Name: "lockscope",
	Doc:  "guarded fields need the lock held; Measure.Sim verification must run outside it",
	Run:  run,
}

// scopePkgs are the packages whose lock discipline the analyzer models.
var scopePkgs = map[string]bool{
	"vsmartjoin/internal/shard": true,
	"vsmartjoin/internal/wal":   true,
}

const similarityPkg = "vsmartjoin/internal/similarity"

func run(pass *lint.Pass) error {
	base := strings.TrimSuffix(pass.Pkg.Path(), "_test")
	if !scopePkgs[base] {
		return nil
	}

	guards := collectGuards(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, guards, fd)
		}
	}
	return nil
}

// guardInfo describes one mutex-guarded struct: the mutex field and the
// set of fields it guards.
type guardInfo struct {
	mutexField *types.Var
	guarded    map[*types.Var]bool
}

// collectGuards finds every struct in the package with a sync.Mutex or
// sync.RWMutex field and derives its guarded field set from the
// declaration paragraph following the mutex.
func collectGuards(pass *lint.Pass) map[*types.Named]*guardInfo {
	out := map[*types.Named]*guardInfo{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Defs[ts.Name]
			if !ok {
				return true
			}
			named, ok := obj.Type().(*types.Named)
			if !ok {
				return true
			}
			gi := structGuards(pass, st)
			if gi != nil {
				out[named] = gi
			}
			return true
		})
	}
	return out
}

func structGuards(pass *lint.Pass, st *ast.StructType) *guardInfo {
	var gi *guardInfo
	collecting := false
	var prevEnd int // line the previous guarded-paragraph field ends on
	for _, field := range st.Fields.List {
		if isMutexType(pass.TypesInfo.Types[field.Type].Type) && len(field.Names) == 1 {
			if v, ok := pass.TypesInfo.Defs[field.Names[0]].(*types.Var); ok {
				gi = &guardInfo{mutexField: v, guarded: map[*types.Var]bool{}}
				collecting = true
				prevEnd = pass.Fset.Position(field.End()).Line
			}
			continue
		}
		if !collecting {
			continue
		}
		// Contiguity: the field (or its doc comment) starts on the line
		// right after the previous field — a blank line ends the
		// guarded paragraph.
		start := field.Pos()
		if field.Doc != nil {
			start = field.Doc.Pos()
		}
		if pass.Fset.Position(start).Line != prevEnd+1 {
			collecting = false
			continue
		}
		for _, name := range field.Names {
			if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
				gi.guarded[v] = true
			}
		}
		prevEnd = pass.Fset.Position(field.End()).Line
	}
	if gi == nil || len(gi.guarded) == 0 {
		return nil
	}
	return gi
}

func isMutexType(t types.Type) bool {
	return lint.IsNamed(t, "sync", "Mutex") || lint.IsNamed(t, "sync", "RWMutex")
}

// checkFunc scans one function body in source order.
func checkFunc(pass *lint.Pass, guards map[*types.Named]*guardInfo, fd *ast.FuncDecl) {
	var gi *guardInfo
	var recv *types.Var
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		if v, ok := pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]].(*types.Var); ok {
			if named := lint.NamedOf(v.Type()); named != nil {
				gi = guards[named]
				recv = v
			}
		}
	}

	s := &scanner{
		pass:     pass,
		gi:       gi,
		recv:     recv,
		funcName: fd.Name.Name,
	}
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		// Convention: the caller holds the lock for the whole body.
		s.depth = 1
	}
	s.stmt(fd.Body)
}

// scanner walks statements in source order tracking how many
// lock acquisitions on the receiver's mutex are outstanding.
type scanner struct {
	pass     *lint.Pass
	gi       *guardInfo // nil when the receiver has no guarded fields
	recv     *types.Var
	funcName string
	depth    int
	deferred bool // a deferred Unlock pins the lock for the whole body
}

func (s *scanner) stmt(n ast.Stmt) {
	switch st := n.(type) {
	case *ast.BlockStmt:
		for _, sub := range st.List {
			s.stmt(sub)
		}
	case *ast.ExprStmt:
		if kind := s.lockCall(st.X); kind != 0 {
			s.depth += kind
			if s.depth < 0 {
				s.depth = 0
			}
			return
		}
		s.expr(st.X)
	case *ast.DeferStmt:
		if kind := s.lockCall(st.Call); kind < 0 {
			s.deferred = true
			return
		}
		s.expr(st.Call)
	case *ast.IfStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		s.expr(st.Cond)
		s.stmt(st.Body)
		if st.Else != nil {
			s.stmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		if st.Cond != nil {
			s.expr(st.Cond)
		}
		if st.Post != nil {
			s.stmt(st.Post)
		}
		s.stmt(st.Body)
	case *ast.RangeStmt:
		s.expr(st.X)
		s.stmt(st.Body)
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		if st.Tag != nil {
			s.expr(st.Tag)
		}
		s.stmt(st.Body)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		s.stmt(st.Assign)
		s.stmt(st.Body)
	case *ast.SelectStmt:
		s.stmt(st.Body)
	case *ast.CaseClause:
		for _, e := range st.List {
			s.expr(e)
		}
		for _, sub := range st.Body {
			s.stmt(sub)
		}
	case *ast.CommClause:
		if st.Comm != nil {
			s.stmt(st.Comm)
		}
		for _, sub := range st.Body {
			s.stmt(sub)
		}
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.expr(e)
		}
		for _, e := range st.Lhs {
			s.expr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.expr(e)
		}
	case *ast.GoStmt:
		s.expr(st.Call)
	case *ast.DeclStmt, *ast.BranchStmt, *ast.EmptyStmt:
		if ds, ok := n.(*ast.DeclStmt); ok {
			ast.Inspect(ds, func(sub ast.Node) bool {
				if e, ok := sub.(ast.Expr); ok {
					s.expr(e)
					return false
				}
				return true
			})
		}
	case *ast.IncDecStmt:
		s.expr(st.X)
	case *ast.SendStmt:
		s.expr(st.Chan)
		s.expr(st.Value)
	case *ast.LabeledStmt:
		s.stmt(st.Stmt)
	}
}

// expr walks an expression, flagging guarded-field access outside the
// lock and Sim verification inside it. Function literals rescan with
// depth 0.
func (s *scanner) expr(n ast.Expr) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(sub ast.Node) bool {
		switch e := sub.(type) {
		case *ast.FuncLit:
			inner := &scanner{pass: s.pass, gi: s.gi, recv: s.recv, funcName: s.funcName}
			inner.stmt(e.Body)
			return false
		case *ast.CallExpr:
			if fn := lint.Callee(s.pass.TypesInfo, e); fn != nil && s.held() {
				if lint.IsMethod(fn, similarityPkg, "", "Sim") {
					s.pass.Reportf(e.Pos(),
						"similarity verification %s.Sim while the %s lock is held: verify outside the lock (the hot path's lock-free-read contract)",
						recvTypeName(fn), s.lockName())
				}
			}
		case *ast.SelectorExpr:
			s.checkGuardedAccess(e)
		}
		return true
	})
}

// checkGuardedAccess flags recv.field selections of guarded fields made
// without the lock.
func (s *scanner) checkGuardedAccess(sel *ast.SelectorExpr) {
	if s.gi == nil || s.held() || strings.HasSuffix(s.funcName, "Locked") {
		return
	}
	selection, ok := s.pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	v, ok := selection.Obj().(*types.Var)
	if !ok || !s.gi.guarded[v] {
		return
	}
	s.pass.Reportf(sel.Sel.Pos(),
		"access to %s-guarded field %s without the lock held", s.lockName(), v.Name())
}

func (s *scanner) held() bool { return s.depth > 0 || s.deferred }

func (s *scanner) lockName() string {
	if s.gi != nil && s.gi.mutexField != nil {
		return s.gi.mutexField.Name()
	}
	return "mu"
}

// lockCall classifies an expression as a lock (+1) or unlock (-1) call
// on the receiver's own mutex field, or 0.
func (s *scanner) lockCall(e ast.Expr) int {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return 0
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return 0
	}
	var delta int
	switch sel.Sel.Name {
	case "Lock", "RLock":
		delta = 1
	case "Unlock", "RUnlock":
		delta = -1
	default:
		return 0
	}
	// The callee must be a sync mutex method and the receiver expression
	// a field selection on the method's receiver (ix.mu.Lock()).
	fn := lint.Callee(s.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return 0
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return 0
	}
	if id, ok := ast.Unparen(inner.X).(*ast.Ident); !ok || s.recv == nil || s.pass.TypesInfo.Uses[id] != s.recv {
		return 0
	}
	return delta
}

func recvTypeName(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if named := lint.NamedRecv(sig); named != nil {
		return named.Obj().Name()
	}
	return "Measure"
}
