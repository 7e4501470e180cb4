package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// AllocFree statically enforces the kernel's zero-alloc contract: a function
// whose doc comment carries an "// alloc-free" line must not allocate on any
// path the runtime AllocsPerRun tests exercise. The analyzer flags the
// allocation shapes the Go compiler cannot optimize away — heap-escaping
// composite literals (&T{...}), slice/map composites, make/new, append and
// map-insert growth, closure literals, method values, go statements,
// string concatenation and string<->[]byte conversions, and interface boxing
// of non-pointer values — plus any call whose allocation behavior it cannot
// see: a same-package call to a function not itself marked alloc-free, or
// any static call across a package boundary (the contract is package-local;
// cross-package callees are invisible under go vet's export-data model).
//
// Two shapes are deliberately exempt, as the contract's boundaries:
//
//   - the argument subtree of a panic call — panics are terminal paths that
//     never execute in the measured steady state, so their formatting may
//     allocate freely;
//   - calls through function values (e.fn()) and interface methods
//     (k.obs.ProcParked(...)) — the dynamic callee owns its own allocation
//     budget; the Observer/Sink docs state that contract.
//
// Allocations that are provably amortized (pool refills, slice growth that
// the steady state never hits) are suppressed case by case with
// "//lint:allow-allocfree <reason>", keeping every exemption documented.
var AllocFree = &Analyzer{
	Name: "allocfree",
	Doc: "report allocation shapes (escaping composites, closures, boxing, append/map " +
		"growth, unverifiable calls) inside functions whose doc comment is marked " +
		"// alloc-free",
	Run: runAllocFree,
}

// allocFreeAnnotated reports whether a doc comment group carries an
// "// alloc-free" line (the annotation must start the line; prose merely
// mentioning the contract does not annotate).
func allocFreeAnnotated(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "alloc-free" || strings.HasPrefix(text, "alloc-free ") || strings.HasPrefix(text, "alloc-free:") {
			return true
		}
	}
	return false
}

func runAllocFree(pass *Pass) error {
	// First pass: the set of annotated functions, so calls between them
	// type-check against the contract.
	annotated := make(map[*types.Func]bool)
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !allocFreeAnnotated(fn.Doc) {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
				annotated[obj] = true
				decls = append(decls, fn)
			}
		}
	}
	for _, fn := range decls {
		checkAllocFreeBody(pass, fn.Body, annotated)
	}
	return nil
}

func checkAllocFreeBody(pass *Pass, body *ast.BlockStmt, annotated map[*types.Func]bool) {
	info := pass.TypesInfo

	// Selectors used as the callee of a call are dispatch, not method
	// values; collect them so the method-value check below can tell the
	// difference.
	calleePos := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				calleePos[sel] = true
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure literal allocates; hoist the state into a struct or use a pre-bound func value")
			return false
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement allocates a goroutine on an alloc-free path")
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "address of composite literal escapes to the heap")
					return false
				}
			}
		case *ast.CompositeLit:
			switch info.Types[n].Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(n.Pos(), "slice/map composite literal allocates")
				return false
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if b, ok := info.Types[n].Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					pass.Reportf(n.Pos(), "string concatenation allocates")
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if !ok {
					continue
				}
				if _, ok := info.Types[idx.X].Type.Underlying().(*types.Map); ok {
					pass.Reportf(idx.Pos(), "map assignment may grow the map")
				}
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal && !calleePos[n] {
				pass.Reportf(n.Pos(), "method value allocates its receiver binding")
			}
		case *ast.CallExpr:
			return checkAllocFreeCall(pass, n, annotated)
		}
		return true
	})
}

// checkAllocFreeCall vets one call inside an alloc-free body. The return
// value feeds ast.Inspect: false skips the call's children (panic subtrees).
func checkAllocFreeCall(pass *Pass, call *ast.CallExpr, annotated map[*types.Func]bool) bool {
	info := pass.TypesInfo

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "panic":
				// Terminal path: the formatting of a can't-happen message
				// may allocate, it never runs in the measured steady state.
				return false
			case "append":
				pass.Reportf(call.Pos(), "append may grow the backing array")
			case "make":
				pass.Reportf(call.Pos(), "make allocates")
			case "new":
				pass.Reportf(call.Pos(), "new allocates")
			}
			return true
		}
	}

	// Conversions: only the string<->byte/rune-slice pairs copy.
	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		if len(call.Args) == 1 && conversionAllocates(tv.Type, info.Types[call.Args[0]].Type) {
			pass.Reportf(call.Pos(), "string conversion copies its operand")
		}
		return true
	}

	checkBoxing(pass, call)

	fn := calleeFunc(info, call.Fun)
	if fn == nil {
		// A call through a function value (e.fn()): the stored callee owns
		// its own allocation budget — the contract boundary.
		return true
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		// Interface-method call: implementations own their budget (the
		// Observer/Sink contract).
		return true
	}
	switch {
	case fn.Pkg() == nil:
		// Error() on the error builtin and friends; nothing to verify.
	case fn.Pkg() == pass.Pkg:
		if !annotated[fn] {
			pass.Reportf(call.Pos(), "calls %s, which is not marked // alloc-free", fn.Name())
		}
	default:
		pass.Reportf(call.Pos(), "calls %s.%s across a package boundary; the alloc-free contract is package-local",
			fn.Pkg().Name(), fn.Name())
	}
	return true
}

// checkBoxing flags arguments that box a multi-word value into an interface
// parameter. Pointer-shaped values (pointers, chans, maps, funcs) fit in the
// interface word and do not allocate; nil never boxes; constants are left
// alone only when untyped nil.
func checkBoxing(pass *Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-arg boxing
			}
			if i == params.Len()-1 {
				pass.Reportf(call.Pos(), "variadic call allocates its argument slice")
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.Types[arg]
		if at.IsNil() || at.Type == nil || types.IsInterface(at.Type) {
			continue
		}
		switch u := at.Type.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			// Pointer-shaped: stored directly in the interface word.
		case *types.Basic:
			// Constant scalars under 256 come from the runtime's static
			// boxes; everything else (strings, complex, runtime scalars)
			// allocates.
			if u.Info()&(types.IsString|types.IsComplex) != 0 || at.Value == nil {
				pass.Reportf(arg.Pos(), "boxing %s into an interface allocates", at.Type)
			}
		default:
			pass.Reportf(arg.Pos(), "boxing %s into an interface allocates", at.Type)
		}
	}
}

func conversionAllocates(to, from types.Type) bool {
	return (isStringType(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isStringType(from))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// stringConstValue extracts the constant string value of an expression, if
// it has one (a literal, a named constant, or a constant expression).
func stringConstValue(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
