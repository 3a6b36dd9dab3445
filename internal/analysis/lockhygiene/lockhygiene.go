// Package lockhygiene enforces two locking conventions in internal/store
// and internal/serve, where the RWMutex-per-store and singleflight cache
// concurrency bugs would surface as rare production races rather than test
// failures.
//
// Rule 1 — scoped locks: a statement mu.Lock() (or RLock) must be
// immediately followed by the matching defer mu.Unlock() (defer RUnlock)
// on the same receiver. Manual unlock sequences are where early returns
// leak locks; the handful of legitimate manual patterns (singleflight,
// which must unlock before blocking on another goroutine's computation)
// carry a lint:allow directive explaining themselves.
//
// Rule 2 — guarded fields: in a struct whose field list contains a mutex
// named mu, the fields in the same contiguous declaration group after mu
// are considered guarded by it (the standard Go layout convention, which
// this repo follows). An exported method that touches a guarded field
// without ever locking mu in its body is flagged. Unexported helpers and
// methods whose name ends in "Locked" are the documented
// caller-holds-the-lock convention and are skipped.
//
// Both rules are heuristics: they see syntax, not aliasing. They are tuned
// so the repo's real patterns pass and the known rot modes (new exported
// method reads s.versions bare; refactor drops a defer) are caught.
package lockhygiene

import (
	"go/ast"
	"go/types"
	"strings"

	"charles/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockhygiene",
	Doc:  "mu.Lock() must pair with an immediate defer mu.Unlock(); exported methods must lock before touching mu-guarded fields",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !strings.Contains(pass.Pkg.Path, "internal/store") && !strings.Contains(pass.Pkg.Path, "internal/serve") {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		checkDeferPairs(pass, f)
		checkGuardedFields(pass, f)
	}
	return nil
}

// unlockFor maps a lock method to its required unlock.
var unlockFor = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

// asMuCall unpacks stmt as a call recv.<method>() where recv's final
// component is a mutex-named field or variable (mu, muFoo, fooMu...).
func asMuCall(e ast.Expr) (recv string, method string, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	var last string
	switch x := sel.X.(type) {
	case *ast.Ident:
		last = x.Name
	case *ast.SelectorExpr:
		last = x.Sel.Name
	default:
		return "", "", false
	}
	if !strings.Contains(strings.ToLower(last), "mu") {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// checkDeferPairs walks every statement list and applies rule 1.
func checkDeferPairs(pass *analysis.Pass, f *ast.File) {
	checkList := func(stmts []ast.Stmt) {
		for i, st := range stmts {
			es, ok := st.(*ast.ExprStmt)
			if !ok {
				continue
			}
			recv, method, ok := asMuCall(es.X)
			if !ok {
				continue
			}
			want, isLock := unlockFor[method]
			if !isLock {
				continue
			}
			if i+1 < len(stmts) {
				if d, ok := stmts[i+1].(*ast.DeferStmt); ok {
					drecv, dmethod, dok := asMuCall(d.Call)
					if dok && drecv == recv && dmethod == want {
						continue
					}
				}
			}
			pass.Reportf(es.Pos(),
				"%s.%s() is not immediately followed by defer %s.%s(); scope the critical section with a defer (or lint:allow lockhygiene with a reason)",
				recv, method, recv, want)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			checkList(n.List)
		case *ast.CaseClause:
			checkList(n.Body)
		case *ast.CommClause:
			checkList(n.Body)
		}
		return true
	})
}

// guardInfo records, per struct type, the fields the mu-below convention
// marks as guarded.
type guardInfo struct {
	fields map[string]bool
}

// checkGuardedFields applies rule 2 within one file: struct declarations
// and method bodies are matched textually, which is exactly the scope the
// convention promises ("guarded fields aren't touched off-lock in the same
// file's exported methods").
func checkGuardedFields(pass *analysis.Pass, f *ast.File) {
	guarded := map[string]*guardInfo{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			if gi := guardedGroup(pass, st); gi != nil {
				guarded[ts.Name.Name] = gi
			}
		}
	}
	if len(guarded) == 0 {
		return
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Body == nil {
			continue
		}
		if !fd.Name.IsExported() || strings.HasSuffix(fd.Name.Name, "Locked") {
			continue
		}
		recvName, typeName := recvInfo(fd)
		if recvName == "" || recvName == "_" {
			continue
		}
		gi := guarded[typeName]
		if gi == nil {
			continue
		}
		var badPos ast.Node
		var badField string
		locks := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || id.Name != recvName {
				return true
			}
			if gi.fields[sel.Sel.Name] && badPos == nil {
				badPos, badField = sel, sel.Sel.Name
			}
			return true
		})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, method, ok := asMuCall(call); ok {
				if _, isLock := unlockFor[method]; isLock && strings.HasPrefix(types.ExprString(call.Fun), recvName+".") {
					locks = true
					return false
				}
			}
			return true
		})
		if badPos != nil && !locks {
			pass.Reportf(badPos.Pos(),
				"exported method %s touches mu-guarded field %s.%s without locking %s.mu (rename with a Locked suffix if the caller holds the lock, or lint:allow lockhygiene with a reason)",
				fd.Name.Name, recvName, badField, recvName)
		}
	}
}

// guardedGroup finds a field named mu (or typed sync.Mutex/RWMutex) and
// returns the names of the fields in the same contiguous line group below
// it — the "mu guards the fields below" layout convention. A blank line
// ends the guarded group.
func guardedGroup(pass *analysis.Pass, st *ast.StructType) *guardInfo {
	fields := st.Fields.List
	muIdx := -1
	for i, fl := range fields {
		if isMutexField(fl) {
			muIdx = i
			break
		}
	}
	if muIdx < 0 || muIdx == len(fields)-1 {
		return nil
	}
	gi := &guardInfo{fields: map[string]bool{}}
	prevLine := pass.Fset.Position(fields[muIdx].End()).Line
	for _, fl := range fields[muIdx+1:] {
		line := pass.Fset.Position(fl.Pos()).Line
		if line > prevLine+1 {
			break // blank line (or comment gap): the guarded group ends
		}
		prevLine = pass.Fset.Position(fl.End()).Line
		for _, nm := range fl.Names {
			gi.fields[nm.Name] = true
		}
	}
	if len(gi.fields) == 0 {
		return nil
	}
	return gi
}

func isMutexField(fl *ast.Field) bool {
	for _, nm := range fl.Names {
		if nm.Name == "mu" {
			return true
		}
	}
	if sel, ok := fl.Type.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "sync" &&
			(sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex") {
			return true
		}
	}
	return false
}

// recvInfo extracts the receiver variable name and base type name,
// unwrapping pointers and type parameters (Cache[V]).
func recvInfo(fd *ast.FuncDecl) (recvName, typeName string) {
	if len(fd.Recv.List) != 1 {
		return "", ""
	}
	fl := fd.Recv.List[0]
	if len(fl.Names) == 1 {
		recvName = fl.Names[0].Name
	}
	t := fl.Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return recvName, tt.Name
		default:
			return recvName, ""
		}
	}
}
