// Package ctxflow enforces end-to-end context plumbing in library code.
//
// Two rules:
//
//  1. context.Background() / context.TODO() are banned in library packages
//     (anything that is not package main). A fresh root context severs the
//     caller's cancellation — the serving lifecycle depends on one context
//     flowing from the HTTP request down through the timeline walk, so a
//     Background() in the middle would quietly make the tail of the walk
//     uncancellable. The few deliberate root contexts (the serve lifecycle's
//     drain contexts, the server-lifetime context of the commit pump) carry
//     a lint:allow directive documenting why they own one.
//
//  2. Inside a function that receives a ctx, calling a same-package sibling
//     F when a ctx-accepting variant FContext exists drops the caller's
//     context on the floor — the rot mode a context-less compatibility
//     wrapper invites. The call must go to FContext(ctx, ...).
package ctxflow

import (
	"go/ast"

	"charles/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "library code must plumb contexts end to end: no context.Background/TODO, no dropping a received ctx",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name == "main" {
		return nil
	}
	// Package-level function index for rule 2: which functions take a ctx
	// parameter, and which have a "Context" variant.
	hasCtxParam := map[string]bool{}
	declared := map[string]bool{}
	for _, f := range pass.Pkg.Files {
		ctxName := analysis.ImportName(f, "context")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			declared[fd.Name.Name] = true
			if ctxName != "" && len(ctxParamNames(fd.Type, ctxName)) > 0 {
				hasCtxParam[fd.Name.Name] = true
			}
		}
	}

	for _, f := range pass.Pkg.Files {
		ctxName := analysis.ImportName(f, "context")
		if ctxName == "" {
			continue
		}
		// Rule 1: fresh root contexts anywhere in the file.
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pkg, name, ok := analysis.SelectorCall(call); ok && pkg == ctxName && (name == "Background" || name == "TODO") {
				pass.Reportf(call.Pos(),
					"context.%s() in library code severs the caller's cancellation; accept a ctx parameter (lint:allow ctxflow for deliberate compatibility shims)", name)
			}
			return true
		})
		// Rule 2: ctx-receiving functions calling non-ctx siblings that
		// have a Context variant.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if len(ctxParamNames(fd.Type, ctxName)) == 0 {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee, ok := call.Fun.(*ast.Ident)
				if !ok {
					return true
				}
				name := callee.Name
				if !declared[name] || hasCtxParam[name] || !declared[name+"Context"] || !hasCtxParam[name+"Context"] {
					return true
				}
				pass.Reportf(call.Pos(),
					"%s receives a ctx but calls %s, which drops it; call %sContext(ctx, ...) instead", fd.Name.Name, name, name)
				return true
			})
		}
	}
	return nil
}

// ctxParamNames returns the names of ft's parameters typed <ctxName>.Context.
func ctxParamNames(ft *ast.FuncType, ctxName string) []string {
	if ft.Params == nil {
		return nil
	}
	var names []string
	for _, field := range ft.Params.List {
		sel, ok := field.Type.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Context" {
			continue
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != ctxName {
			continue
		}
		for _, nm := range field.Names {
			names = append(names, nm.Name)
		}
		if len(field.Names) == 0 {
			names = append(names, "_")
		}
	}
	return names
}
