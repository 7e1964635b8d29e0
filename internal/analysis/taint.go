package analysis

// Interprocedural taint engine behind the noise-taint rule. The lattice
// element is the set of tainted local objects; propagation runs on the
// CFG/dataflow engine, and function boundaries are crossed with
// summaries computed bottom-up over the call graph's SCCs:
//
//	flows         per parameter, the bitset of results the parameter can
//	              reach without passing a sanitizer;
//	leaks         per parameter, how the parameter escapes inside the
//	              callee (a sink call, or a store into an unmarked
//	              field) — the caller is reported when it passes taint;
//	resultTainted the results carrying taint born inside the function
//	              (a source read or source call);
//	writes        per parameter, the bitset of slice parameters the
//	              parameter's taint is written into (dst[i] = src[i],
//	              copy(dst, src)), so fill(buf, h*) taints the caller's
//	              buf;
//	paramsTainted the slice parameters written with taint born inside
//	              the function.
//
// Sources are *marked struct fields* (built-in configuration plus
// //lint:source directives) and *source functions* (whose raw-model
// slice results are born tainted). The sanitizer and //lint:declassify
// functions scrub: their results are clean no matter what flows in.
// Sinks release bytes to the outside world; passing a tainted value —
// or any struct type that still carries a marked field — is a finding.

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
	"unicode/utf8"
)

// FuncRef names declared functions or methods by declaring package path
// and bare name; it matches interface methods and concrete methods
// alike, so one ref covers every implementation in a package.
type FuncRef struct{ Pkg, Name string }

// FieldRef names a struct field by package path, type name and field
// name.
type FieldRef struct{ Pkg, Type, Field string }

// sourcePrefix marks a struct field as raw-model data:
//
//	//lint:source <Type>.<Field>
//
// The directive may sit in any file of the package declaring the type.
const sourcePrefix = "//lint:source"

// declassifyPrefix marks a function or interface method whose result is
// a safe aggregate of its (possibly raw) inputs — a scalar loss, a
// count — and therefore clean:
//
//	//lint:declassify <reason>
const declassifyPrefix = "//lint:declassify"

// taintLeak records how a value escapes inside a function.
type taintLeak struct {
	pos  token.Pos
	what string
}

// taintSummary is one function's interprocedural behaviour.
type taintSummary struct {
	nparams       int
	flows         []uint64 // per param: bitset of results reached
	leaks         []*taintLeak
	resultTainted uint64
	writes        []uint64 // per param: bitset of slice params written
	paramsTainted uint64
}

func taintSummaryEqual(a, b *taintSummary) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.nparams != b.nparams || a.resultTainted != b.resultTainted || a.paramsTainted != b.paramsTainted {
		return false
	}
	for i := range a.flows {
		if a.flows[i] != b.flows[i] || a.writes[i] != b.writes[i] {
			return false
		}
	}
	// Leaks are compared by presence only. The clause text embeds the
	// callee's clause ("passes it to f, which ..."), so inside a recursive
	// SCC it gains a layer per fixpoint iteration; comparing it would keep
	// the iteration alive forever. The abstract fact callers consume — does
	// parameter i escape — is the presence bit.
	for i := range a.leaks {
		if (a.leaks[i] == nil) != (b.leaks[i] == nil) {
			return false
		}
	}
	return true
}

// truncateClause bounds a leak chain's rendering: a long call chain (or a
// recursive cycle caught mid-iteration) would otherwise nest "passes it
// to f, which ..." clauses without limit.
func truncateClause(s string) string {
	const max = 240
	if len(s) <= max {
		return s
	}
	cut := max
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut] + " ..."
}

// taintWorld is the group-wide context: resolved sources, sanitizers,
// sinks, declassifications and the summaries under computation.
type taintWorld struct {
	graph    *CallGraph
	marked   map[types.Object]bool
	declass  map[types.Object]bool
	isSource func(*types.Func) bool
	isSan    func(*types.Func) bool
	isSink   func(*types.Func) bool
	// lookup resolves a node's current summary; during the bottom-up
	// phase it is the fixpoint driver's getter, afterwards the final map.
	lookup func(*FuncNode) *taintSummary
}

// matchRef reports whether fn matches any of the refs.
func matchRef(refs []FuncRef, fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	for _, r := range refs {
		if r.Pkg == pkg && r.Name == name {
			return true
		}
	}
	return false
}

// isModelSlice reports whether t is (or derefs to) a []float64 — the
// shape of a raw optimal-model vector. Source functions taint only
// results of this shape, so their secondary results (errors, counts)
// stay clean.
func isModelSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float64
}

// collectSourceFields resolves the built-in field refs and every
// //lint:source directive in the group to field objects. Malformed or
// unresolvable directives are reported.
func collectSourceFields(gp *GroupPass, builtin []FieldRef, report func(pos token.Pos, format string, args ...any)) map[types.Object]bool {
	marked := make(map[types.Object]bool)
	mark := func(pkg *Package, typeName, fieldName string) bool {
		if pkg.Types == nil {
			return false
		}
		tn, ok := pkg.Types.Scope().Lookup(typeName).(*types.TypeName)
		if !ok {
			return false
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			return false
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Name() == fieldName {
				marked[f] = true
				return true
			}
		}
		return false
	}
	byPath := make(map[string]*Package, len(gp.Pkgs))
	for _, pkg := range gp.Pkgs {
		byPath[pkg.Path] = pkg
	}
	for _, ref := range builtin {
		if pkg, ok := byPath[ref.Pkg]; ok {
			mark(pkg, ref.Type, ref.Field)
		}
	}
	for _, pkg := range gp.Pkgs {
		for _, f := range pkg.Files {
			for _, group := range f.Comments {
				for _, c := range group.List {
					if !strings.HasPrefix(c.Text, sourcePrefix) {
						continue
					}
					rest := strings.TrimPrefix(c.Text, sourcePrefix)
					if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
						continue
					}
					fields := strings.Fields(rest)
					var typeName, fieldName string
					if len(fields) == 1 {
						if t, fl, ok := strings.Cut(fields[0], "."); ok {
							typeName, fieldName = t, fl
						}
					}
					if typeName == "" || fieldName == "" {
						report(c.Pos(), "malformed directive: want %s <Type>.<Field>", sourcePrefix)
						continue
					}
					if !mark(pkg, typeName, fieldName) {
						report(c.Pos(), "%s names unknown field %s.%s in package %s", sourcePrefix, typeName, fieldName, pkg.Path)
					}
				}
			}
		}
	}
	return marked
}

// collectDeclassified indexes every //lint:declassify directive on a
// function declaration or interface method. A directive without a
// reason is reported.
func collectDeclassified(gp *GroupPass, report func(pos token.Pos, format string, args ...any)) map[types.Object]bool {
	declass := make(map[types.Object]bool)
	directive := func(doc *ast.CommentGroup) (found, valid bool, pos token.Pos) {
		if doc == nil {
			return false, false, token.NoPos
		}
		for _, c := range doc.List {
			if !strings.HasPrefix(c.Text, declassifyPrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, declassifyPrefix)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue
			}
			return true, len(strings.Fields(rest)) >= 1, c.Pos()
		}
		return false, false, token.NoPos
	}
	for _, pkg := range gp.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if found, valid, pos := directive(n.Doc); found {
						if !valid {
							report(pos, "malformed directive: want %s <reason>", declassifyPrefix)
						} else if obj := pkg.Info.Defs[n.Name]; obj != nil {
							declass[obj] = true
						}
					}
					return false // no interface literals to find inside bodies we care to annotate
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						if len(m.Names) == 0 {
							continue
						}
						if found, valid, pos := directive(m.Doc); found {
							if !valid {
								report(pos, "malformed directive: want %s <reason>", declassifyPrefix)
								continue
							}
							for _, name := range m.Names {
								if obj := pkg.Info.Defs[name]; obj != nil {
									declass[obj] = true
								}
							}
						}
					}
				}
				return true
			})
		}
	}
	return declass
}

// --- per-function propagation -------------------------------------------

// taintFact is the set of tainted objects; maps are treated as
// immutable by the transfer function.
type taintFact map[types.Object]bool

func (f taintFact) with(obj types.Object) taintFact {
	if obj == nil || f[obj] {
		return f
	}
	g := make(taintFact, len(f)+1)
	for k := range f {
		g[k] = true
	}
	g[obj] = true
	return g
}

func (f taintFact) without(obj types.Object) taintFact {
	if obj == nil || !f[obj] {
		return f
	}
	g := make(taintFact, len(f))
	for k := range f {
		if k != obj {
			g[k] = true
		}
	}
	return g
}

// taintFlow implements Flow[taintFact] for one function body.
type taintFlow struct {
	w    *taintWorld
	pkg  *Package
	node *FuncNode
	// sourcesActive enables source fields/functions; summary runs that
	// track a single parameter switch them off.
	sourcesActive bool
	entry         taintFact
	// ranges maps a range operand expression (the CFG head node) back to
	// its statement so key/value variables can be tainted.
	ranges map[ast.Node]*ast.RangeStmt
}

func newTaintFlow(w *taintWorld, n *FuncNode, entry taintFact, sourcesActive bool) *taintFlow {
	tf := &taintFlow{
		w:             w,
		pkg:           n.Pkg,
		node:          n,
		sourcesActive: sourcesActive,
		entry:         entry,
		ranges:        make(map[ast.Node]*ast.RangeStmt),
	}
	ast.Inspect(n.Body(), func(x ast.Node) bool {
		if rs, ok := x.(*ast.RangeStmt); ok {
			tf.ranges[rs.X] = rs
		}
		return !isFuncLit(x)
	})
	return tf
}

func isFuncLit(n ast.Node) bool { _, ok := n.(*ast.FuncLit); return ok }

func (tf *taintFlow) Entry() taintFact { return tf.entry }

func (tf *taintFlow) Join(a, b taintFact) taintFact {
	if len(a) == 0 {
		return b
	}
	out := make(taintFact, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func (tf *taintFlow) Equal(a, b taintFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func (tf *taintFlow) Transfer(f taintFact, n ast.Node) taintFact {
	f = tf.callWrites(f, n)
	switch n := n.(type) {
	case *ast.AssignStmt:
		return tf.assign(f, n)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				f = tf.valueSpec(f, vs)
			}
		}
		return f
	case *ast.ExprStmt:
		// copy(dst, src) with a tainted source taints the destination.
		if call, ok := n.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := tf.pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "copy" && len(call.Args) == 2 {
					if tf.tainted(f, call.Args[1]) {
						f = f.with(rootObj(tf.pkg.Info, call.Args[0]))
					}
				}
			}
		}
		return f
	case ast.Expr:
		if rs, ok := tf.ranges[n]; ok && tf.tainted(f, rs.X) {
			for _, lhs := range []ast.Expr{rs.Key, rs.Value} {
				if id, ok := lhs.(*ast.Ident); ok {
					f = f.with(identObj(tf.pkg.Info, id))
				}
			}
		}
		return f
	}
	return f
}

func (tf *taintFlow) valueSpec(f taintFact, vs *ast.ValueSpec) taintFact {
	if len(vs.Values) == 1 && len(vs.Names) > 1 {
		bits := tf.multiValueBits(f, vs.Values[0])
		for i, name := range vs.Names {
			if bits&(1<<uint(i)) != 0 {
				f = f.with(tf.pkg.Info.Defs[name])
			}
		}
		return f
	}
	for i, name := range vs.Names {
		if i < len(vs.Values) && tf.tainted(f, vs.Values[i]) {
			f = f.with(tf.pkg.Info.Defs[name])
		}
	}
	return f
}

func (tf *taintFlow) assign(f taintFact, as *ast.AssignStmt) taintFact {
	var bits func(i int) bool
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		b := tf.multiValueBits(f, as.Rhs[0])
		bits = func(i int) bool { return b&(1<<uint(i)) != 0 }
	} else {
		bits = func(i int) bool { return i < len(as.Rhs) && tf.tainted(f, as.Rhs[i]) }
	}
	for i, lhs := range as.Lhs {
		t := bits(i)
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj := identObj(tf.pkg.Info, lhs)
			if t {
				f = f.with(obj)
			} else if as.Tok == token.ASSIGN || as.Tok == token.DEFINE {
				f = f.without(obj) // strong update on whole-variable writes
			}
		case *ast.SelectorExpr:
			// Field stores are checked (and reported) by the walk phase;
			// storing into a *marked* field keeps the container clean by
			// construction — readers re-taint through the mark.
		case *ast.IndexExpr, *ast.StarExpr:
			if t {
				f = f.with(rootObj(tf.pkg.Info, lhs))
			}
		}
	}
	return f
}

// callWrites applies the write summaries of the calls in n: a callee
// that writes a tainted argument (or, with sources active, a source it
// reads itself) into a slice parameter taints the caller's argument for
// that parameter. Sanitizers and declassified functions write nothing
// tainted.
func (tf *taintFlow) callWrites(f taintFact, n ast.Node) taintFact {
	info := tf.pkg.Info
	ast.Inspect(n, func(x ast.Node) bool {
		if isFuncLit(x) {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, recv, lit := calleeOf(info, call)
		if fn != nil && (tf.w.isSan(fn) || tf.w.declass[fn]) {
			return true
		}
		for _, target := range tf.callTargets(fn, lit) {
			s := tf.w.lookup(target)
			if s == nil {
				continue
			}
			var bits uint64
			if tf.sourcesActive {
				bits = s.paramsTainted
			}
			forEachTaintedArg(tf, f, call, recv, s.nparams, func(idx int) {
				if idx < len(s.writes) {
					bits |= s.writes[idx]
				}
			})
			for j := 0; bits != 0; j++ {
				if bits&1 != 0 {
					if arg := argAt(call, recv, j); arg != nil {
						f = f.with(rootObj(info, arg))
					}
				}
				bits >>= 1
			}
		}
		return true
	})
	return f
}

// argAt is the call's expression for callee parameter j: the receiver
// first for a method call, then the arguments; nil past the last one.
func argAt(call *ast.CallExpr, recv ast.Expr, j int) ast.Expr {
	if recv != nil {
		if j == 0 {
			return recv
		}
		j--
	}
	if j < len(call.Args) {
		return call.Args[j]
	}
	return nil
}

// multiValueBits evaluates a multi-result RHS (call, type assertion,
// map index) to a per-result taint bitset.
func (tf *taintFlow) multiValueBits(f taintFact, e ast.Expr) uint64 {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		return tf.callBits(f, e)
	case *ast.TypeAssertExpr:
		if tf.tainted(f, e.X) {
			return 1
		}
	case *ast.IndexExpr:
		if tf.tainted(f, e.X) {
			return 1
		}
	case *ast.UnaryExpr: // v, ok := <-ch
		if tf.tainted(f, e.X) {
			return 1
		}
	}
	return 0
}

// tainted reports whether the expression evaluates to a tainted value
// under fact f.
func (tf *taintFlow) tainted(f taintFact, e ast.Expr) bool {
	info := tf.pkg.Info
	switch e := e.(type) {
	case *ast.Ident:
		return f[identObj(info, e)]
	case *ast.SelectorExpr:
		obj := info.Uses[e.Sel]
		if tf.sourcesActive && tf.w.marked[obj] {
			return true
		}
		if _, isFn := obj.(*types.Func); isFn {
			return false // method value
		}
		return tf.tainted(f, e.X)
	case *ast.IndexExpr:
		return tf.tainted(f, e.X)
	case *ast.IndexListExpr:
		return tf.tainted(f, e.X)
	case *ast.SliceExpr:
		return tf.tainted(f, e.X)
	case *ast.StarExpr:
		return tf.tainted(f, e.X)
	case *ast.ParenExpr:
		return tf.tainted(f, e.X)
	case *ast.TypeAssertExpr:
		return tf.tainted(f, e.X)
	case *ast.UnaryExpr:
		return tf.tainted(f, e.X)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ, token.LAND, token.LOR:
			return false // comparisons yield booleans, not data
		}
		return tf.tainted(f, e.X) || tf.tainted(f, e.Y)
	case *ast.CallExpr:
		return tf.callBits(f, e) != 0
	case *ast.CompositeLit:
		t := info.TypeOf(e)
		if t != nil {
			if _, isStruct := t.Underlying().(*types.Struct); isStruct {
				// Field stores are screened individually by the walk
				// phase; the container itself stays clean.
				return false
			}
		}
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if tf.tainted(f, el) {
				return true
			}
		}
		return false
	}
	return false
}

// callBits computes the per-result taint bitset of a call expression.
func (tf *taintFlow) callBits(f taintFact, call *ast.CallExpr) uint64 {
	info := tf.pkg.Info
	// Conversions pass taint through.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && tf.tainted(f, call.Args[0]) {
			return 1
		}
		return 0
	}
	fn, recv, lit := calleeOf(info, call)
	// Builtins: append propagates, everything else scrubs (len, cap, ...).
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && fn == nil && lit == nil {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" {
				for _, a := range call.Args {
					if tf.tainted(f, a) {
						return 1
					}
				}
			}
			return 0
		}
	}
	anyArgTainted := func() bool {
		if recv != nil && tf.tainted(f, recv) {
			return true
		}
		for _, a := range call.Args {
			if tf.tainted(f, a) {
				return true
			}
		}
		return false
	}
	if fn != nil {
		if tf.w.isSan(fn) || tf.w.declass[fn] {
			return 0
		}
		if tf.sourcesActive && tf.w.isSource(fn) {
			return modelResultBits(fn)
		}
		targets := tf.calleeNodes(fn, lit)
		if len(targets) > 0 {
			return tf.summaryBits(f, call, recv, targets)
		}
		// Out-of-group callee: conservatively assume taint flows through.
		if anyArgTainted() {
			return ^uint64(0)
		}
		return 0
	}
	if lit != nil {
		if node := tf.w.graph.LitNode(lit); node != nil {
			return tf.summaryBits(f, call, nil, []*FuncNode{node})
		}
	}
	// Call through a function value: unknown target.
	if anyArgTainted() {
		return ^uint64(0)
	}
	return 0
}

// callTargets resolves the group nodes a call can land in: those of a
// declared function or method, or an immediately invoked literal.
func (tf *taintFlow) callTargets(fn *types.Func, lit *ast.FuncLit) []*FuncNode {
	if fn != nil {
		return tf.calleeNodes(fn, lit)
	}
	if lit != nil {
		if node := tf.w.graph.LitNode(lit); node != nil {
			return []*FuncNode{node}
		}
	}
	return nil
}

// calleeNodes resolves the group nodes a call to fn can land in.
func (tf *taintFlow) calleeNodes(fn *types.Func, lit *ast.FuncLit) []*FuncNode {
	if fn == nil {
		return nil
	}
	if IsInterfaceMethod(fn) {
		return tf.w.graph.DynamicTargets(fn)
	}
	if node := tf.w.graph.byObj[fn]; node != nil {
		return []*FuncNode{node}
	}
	return nil
}

// summaryBits folds the callee summaries over the call's arguments.
func (tf *taintFlow) summaryBits(f taintFact, call *ast.CallExpr, recv ast.Expr, targets []*FuncNode) uint64 {
	var bits uint64
	for _, target := range targets {
		s := tf.w.lookup(target)
		if s == nil {
			continue
		}
		if tf.sourcesActive {
			bits |= s.resultTainted
		}
		forEachTaintedArg(tf, f, call, recv, s.nparams, func(idx int) {
			if idx < len(s.flows) {
				bits |= s.flows[idx]
			}
		})
	}
	return bits
}

// forEachTaintedArg maps tainted call arguments (receiver included) to
// callee parameter indices.
func forEachTaintedArg(tf *taintFlow, f taintFact, call *ast.CallExpr, recv ast.Expr, nparams int, visit func(idx int)) {
	clamp := func(i int) int {
		if nparams == 0 {
			return 0
		}
		if i >= nparams {
			return nparams - 1 // variadic tail
		}
		return i
	}
	offset := 0
	if recv != nil {
		offset = 1
		if tf.tainted(f, recv) {
			visit(0)
		}
	}
	for i, a := range call.Args {
		if tf.tainted(f, a) {
			visit(clamp(i + offset))
		}
	}
}

// modelResultBits taints the []float64-shaped results of a source
// function.
func modelResultBits(fn *types.Func) uint64 {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return 0
	}
	var bits uint64
	for i := 0; i < sig.Results().Len() && i < 64; i++ {
		if isModelSlice(sig.Results().At(i).Type()) {
			bits |= 1 << uint(i)
		}
	}
	return bits
}

// calleeOf resolves the called function at a call site: a declared
// function or method (with the receiver expression for ordinary method
// calls), or an immediately invoked literal.
func calleeOf(info *types.Info, call *ast.CallExpr) (fn *types.Func, recv ast.Expr, lit *ast.FuncLit) {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[f.Sel].(*types.Func)
		if fn != nil {
			if s, ok := info.Selections[f]; ok && s.Kind() == types.MethodVal {
				recv = f.X
			}
		}
	case *ast.FuncLit:
		lit = f
	}
	return fn, recv, lit
}

// identObj resolves an identifier in either use or definition position.
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// rootObj walks to the base identifier of an access path: x.f[i] → x.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return identObj(info, x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// paramObjs lists a function's parameter objects in summary order:
// receiver first, then declared parameters; nil for unnamed slots.
func paramObjs(n *FuncNode) []types.Object {
	info := n.Pkg.Info
	var fields []*ast.Field
	if n.Decl != nil {
		if n.Decl.Recv != nil {
			fields = append(fields, n.Decl.Recv.List...)
		}
		if n.Decl.Type.Params != nil {
			fields = append(fields, n.Decl.Type.Params.List...)
		}
	} else if n.Lit.Type.Params != nil {
		fields = append(fields, n.Lit.Type.Params.List...)
	}
	var out []types.Object
	for _, f := range fields {
		if len(f.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range f.Names {
			out = append(out, info.Defs[name])
		}
	}
	return out
}

// sliceParams is the bitset of params (in summary order) whose type is a
// slice: the parameters a callee can write into for its caller.
func sliceParams(params []types.Object) uint64 {
	var bits uint64
	for i, p := range params {
		if p == nil || i >= 64 {
			continue
		}
		if _, ok := p.Type().Underlying().(*types.Slice); ok {
			bits |= 1 << uint(i)
		}
	}
	return bits
}

// taintedParams is the subset of the params in mask that fact taints.
func taintedParams(fact taintFact, params []types.Object, mask uint64) uint64 {
	var bits uint64
	for i, p := range params {
		if i < 64 && mask&(1<<uint(i)) != 0 && fact[p] {
			bits |= 1 << uint(i)
		}
	}
	return bits
}

// resultObjs lists the named result objects (nil for unnamed) and the
// result count.
func resultObjs(n *FuncNode) (count int, named []types.Object) {
	info := n.Pkg.Info
	var ft *ast.FuncType
	if n.Decl != nil {
		ft = n.Decl.Type
	} else {
		ft = n.Lit.Type
	}
	if ft.Results == nil {
		return 0, nil
	}
	for _, f := range ft.Results.List {
		if len(f.Names) == 0 {
			count++
			named = append(named, nil)
			continue
		}
		for _, name := range f.Names {
			count++
			named = append(named, info.Defs[name])
		}
	}
	return count, named
}

// typeExposesMarked walks a type's (JSON-visible) struct fields looking
// for a marked source field: marshaling such a value serializes the raw
// model even though the value itself carries no flow-taint.
func typeExposesMarked(marked map[types.Object]bool, t types.Type) (fieldName string, found bool) {
	return exposedField(marked, t, make(map[types.Type]bool), 0)
}

func exposedField(marked map[types.Object]bool, t types.Type, seen map[types.Type]bool, depth int) (string, bool) {
	if t == nil || depth > 4 || seen[t] {
		return "", false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return exposedField(marked, u.Elem(), seen, depth)
	case *types.Slice:
		return exposedField(marked, u.Elem(), seen, depth+1)
	case *types.Array:
		return exposedField(marked, u.Elem(), seen, depth+1)
	case *types.Map:
		return exposedField(marked, u.Elem(), seen, depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !f.Exported() {
				continue // encoding/json skips unexported fields
			}
			if tag := reflectTagName(u.Tag(i)); tag == "-" {
				continue
			}
			if marked[f] {
				return f.Name(), true
			}
			if name, ok := exposedField(marked, f.Type(), seen, depth+1); ok {
				return f.Name() + "." + name, true
			}
		}
	}
	return "", false
}

// reflectTagName extracts the json tag's name component.
func reflectTagName(tag string) string {
	name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
	return name
}

func fnDisplay(fn *types.Func) string {
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
