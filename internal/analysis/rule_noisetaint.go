package analysis

// noise-taint: the noise-before-release invariant, machine-checked.
// A buyer pays p(δ) for a model *perturbed* with noise δ (paper §4);
// the raw optimal model must never reach a release point — an HTTP
// response, a journal payload, a persisted ledger — without passing
// through the noise mechanism. This rule tracks raw-model values
// interprocedurally (see taint.go) and reports any unsanitized flow.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// NoiseTaint is the noise-before-release taint rule.
type NoiseTaint struct {
	// SourceFields are struct fields holding raw optimal models, in
	// addition to any //lint:source directives found in the group.
	SourceFields []FieldRef
	// SourceFuncs are functions whose []float64 results are raw models
	// (training routines).
	SourceFuncs []FuncRef
	// Sanitizers scrub values: results are clean regardless of inputs.
	Sanitizers []FuncRef
	// SanitizerName is how messages refer to the sanitizer.
	SanitizerName string
	// Sinks are release points in addition to the built-in
	// encoding/json marshaling, net/http response writes and
	// os.WriteFile.
	Sinks []FuncRef
	// Scope restricts reporting to these package paths (and their
	// subtrees). Summaries are still computed for the whole group so
	// flows that cross out-of-scope code are followed. Empty means
	// report everywhere.
	Scope []string
}

func (NoiseTaint) Name() string { return "noise-taint" }

func (NoiseTaint) Doc() string {
	return "Raw optimal-model values (training outputs, //lint:source fields) must pass " +
		"through the noise mechanism before reaching a release sink: HTTP response " +
		"marshaling, journal payloads, or persisted files. Flows are tracked across " +
		"function and package boundaries via call-graph summaries; //lint:declassify " +
		"exempts safe scalar aggregates."
}

// Inspect is a no-op: the rule works on the whole group.
func (NoiseTaint) Inspect(*Pass) {}

// builtinSinks release bytes to buyers or disk.
var builtinSinks = []FuncRef{
	{Pkg: "encoding/json", Name: "Marshal"},
	{Pkg: "encoding/json", Name: "MarshalIndent"},
	{Pkg: "encoding/json", Name: "Encode"},
	{Pkg: "net/http", Name: "Write"},
	{Pkg: "os", Name: "WriteFile"},
}

// InspectGroup runs the two-phase analysis: bottom-up summaries over
// the SCCs, then a reporting pass per in-scope function.
func (r NoiseTaint) InspectGroup(gp *GroupPass) {
	sanName := r.SanitizerName
	if sanName == "" {
		sanName = "the sanitizer"
	}
	sinks := append(append([]FuncRef{}, builtinSinks...), r.Sinks...)
	w := &taintWorld{
		graph:    gp.Graph,
		marked:   collectSourceFields(gp, r.SourceFields, gp.Reportf),
		declass:  collectDeclassified(gp, gp.Reportf),
		isSource: func(fn *types.Func) bool { return matchRef(r.SourceFuncs, fn) },
		isSan:    func(fn *types.Func) bool { return matchRef(r.Sanitizers, fn) },
		isSink:   func(fn *types.Func) bool { return matchRef(sinks, fn) },
	}
	if len(w.marked) == 0 && len(r.SourceFuncs) == 0 {
		return // nothing can be tainted
	}
	cfgs := make(map[*FuncNode]*CFG)
	cfgFor := func(n *FuncNode) *CFG {
		if g, ok := cfgs[n]; ok {
			return g
		}
		g := BuildCFG(n.Body(), CFGOptions{IsExit: func(c *ast.CallExpr) bool { return isPanicCall(n.Pkg.Info, c) }})
		cfgs[n] = g
		return g
	}

	// Phase A: summaries, callee-first.
	summaries := ComputeSummaries(gp.Graph,
		func(n *FuncNode, get func(*FuncNode) *taintSummary) *taintSummary {
			w.lookup = get
			return computeTaintSummary(w, n, cfgFor(n), sanName, gp.Fset)
		},
		taintSummaryEqual)
	w.lookup = func(n *FuncNode) *taintSummary { return summaries[n] }

	// Phase B: report unsanitized flows in scoped packages. Parameters
	// start clean — a leaky parameter is the *caller's* finding, made at
	// the call site through the callee's summary.
	for _, n := range gp.Graph.Nodes {
		if len(r.Scope) > 0 && !matchScope(r.Scope, n.Pkg.Path) {
			continue
		}
		tf := newTaintFlow(w, n, taintFact{}, true)
		res := Forward(cfgFor(n), tf)
		nres, named := resultObjs(n)
		report := func(pos token.Pos, msg, _ string) { gp.Reportf(pos, "%s", msg) }
		scanTaint(tf, res, nres, named, sanName, gp.Fset, taintEvents{
			sink:     report,
			store:    report,
			callLeak: report,
		})
	}
}

// computeTaintSummary derives one function's summary: a per-parameter
// run (sources off) finds param→result flows, parameter leaks and the
// slice parameters the parameter is written into, and one internal run
// (sources on) finds results and slice parameters tainted from within.
func computeTaintSummary(w *taintWorld, n *FuncNode, cfg *CFG, sanName string, fset *token.FileSet) *taintSummary {
	params := paramObjs(n)
	nres, named := resultObjs(n)
	s := &taintSummary{
		nparams: len(params),
		flows:   make([]uint64, len(params)),
		leaks:   make([]*taintLeak, len(params)),
		writes:  make([]uint64, len(params)),
	}
	slices := sliceParams(params)
	for i, p := range params {
		if p == nil {
			continue
		}
		i := i
		tf := newTaintFlow(w, n, taintFact{p: true}, false)
		res := Forward(cfg, tf)
		if exit, ok := res.Before(cfg.Exit); ok && i < 64 {
			s.writes[i] = taintedParams(exit, params, slices) &^ (1 << uint(i))
		}
		leak := func(pos token.Pos, _ string, clause string) {
			if s.leaks[i] == nil {
				s.leaks[i] = &taintLeak{pos: pos, what: truncateClause(clause)}
			}
		}
		scanTaint(tf, res, nres, named, sanName, fset, taintEvents{
			ret:      func(bits uint64) { s.flows[i] |= bits },
			sink:     leak,
			store:    leak,
			callLeak: leak,
		})
	}
	tf := newTaintFlow(w, n, taintFact{}, true)
	res := Forward(cfg, tf)
	if exit, ok := res.Before(cfg.Exit); ok {
		s.paramsTainted = taintedParams(exit, params, slices)
	}
	scanTaint(tf, res, nres, named, sanName, fset, taintEvents{
		ret: func(bits uint64) { s.resultTainted |= bits },
	})
	return s
}

// taintEvents are the callbacks scanTaint fires; nil members are
// skipped. Each event carries a full diagnostic message (for reports)
// and a short verb clause (for leak summaries that chain through call
// sites: "raw model value passed to f, which <clause>").
type taintEvents struct {
	// ret fires at each return with the bitset of tainted results.
	ret func(bits uint64)
	// sink fires when a tainted value (or a marked-field-carrying type)
	// is passed to a sink call.
	sink func(pos token.Pos, msg, clause string)
	// store fires when a tainted value is stored into an unmarked field.
	store func(pos token.Pos, msg, clause string)
	// callLeak fires when a tainted value is passed to a callee whose
	// summary says the parameter escapes.
	callLeak func(pos token.Pos, msg, clause string)
}

// scanTaint replays the dataflow solution and fires events at returns,
// sink calls, unmarked-field stores and leaking call sites.
func scanTaint(tf *taintFlow, res *FlowResult[taintFact], nres int, named []types.Object, sanName string, fset *token.FileSet, ev taintEvents) {
	info := tf.pkg.Info
	at := func(pos token.Pos) string {
		p := fset.Position(pos)
		return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
	}
	res.Walk(func(_ *Block, n ast.Node, before taintFact) {
		if ret, ok := n.(*ast.ReturnStmt); ok && ev.ret != nil && nres > 0 {
			var bits uint64
			switch {
			case len(ret.Results) == 1 && nres > 1:
				bits = tf.multiValueBits(before, ret.Results[0])
			case len(ret.Results) > 0:
				for i, e := range ret.Results {
					if i < 64 && tf.tainted(before, e) {
						bits |= 1 << uint(i)
					}
				}
			default: // bare return: named results carry the values
				for i, obj := range named {
					if obj != nil && i < 64 && before[obj] {
						bits |= 1 << uint(i)
					}
				}
			}
			if bits != 0 {
				ev.ret(bits)
			}
		}
		if as, ok := n.(*ast.AssignStmt); ok && ev.store != nil {
			for i, lhs := range as.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				var rhsTainted bool
				if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
					rhsTainted = tf.multiValueBits(before, as.Rhs[0])&(1<<uint(i)) != 0
				} else if i < len(as.Rhs) {
					rhsTainted = tf.tainted(before, as.Rhs[i])
				}
				if !rhsTainted {
					continue
				}
				obj := info.Uses[sel.Sel]
				if obj == nil || tf.w.marked[obj] {
					continue
				}
				if _, isVar := obj.(*types.Var); !isVar {
					continue
				}
				ev.store(lhs.Pos(), fmt.Sprintf(
					"raw model value stored in field %s, which is not marked //lint:source — mark it or sanitize with %s first",
					obj.Name(), sanName),
					fmt.Sprintf("stores it in unmarked field %s", obj.Name()))
			}
		}
		ast.Inspect(n, func(x ast.Node) bool {
			if isFuncLit(x) {
				return false
			}
			switch x := x.(type) {
			case *ast.CallExpr:
				scanCall(tf, before, x, sanName, at, ev)
			case *ast.CompositeLit:
				scanComposite(tf, before, x, sanName, ev)
			}
			return true
		})
	})
}

// scanCall checks one call site for sink hits and leaking callees.
func scanCall(tf *taintFlow, before taintFact, call *ast.CallExpr, sanName string, at func(token.Pos) string, ev taintEvents) {
	info := tf.pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	fn, recv, lit := calleeOf(info, call)
	if fn != nil {
		if tf.w.isSan(fn) || tf.w.declass[fn] {
			return
		}
		if tf.w.isSink(fn) && ev.sink != nil {
			for _, a := range call.Args {
				if tf.tainted(before, a) {
					ev.sink(a.Pos(), fmt.Sprintf(
						"raw model value reaches %s without passing through %s", fnDisplay(fn), sanName),
						fmt.Sprintf("releases it via %s", fnDisplay(fn)))
				} else if tf.sourcesActive {
					// Type-based exposure: marshaling a type that carries a
					// marked field serializes the raw model even without a
					// tracked flow. Only meaningful when sources are active
					// (phase B) — it is independent of any single parameter.
					if field, exposed := typeExposesMarked(tf.w.marked, info.TypeOf(a)); exposed {
						ev.sink(a.Pos(), fmt.Sprintf(
							"%s serializes source field %s (marked //lint:source) — use a sanitized snapshot type or perturb with %s",
							fnDisplay(fn), field, sanName),
							fmt.Sprintf("serializes source field %s via %s", field, fnDisplay(fn)))
					}
				}
			}
			return
		}
	}
	if ev.callLeak == nil {
		return
	}
	var targets []*FuncNode
	if fn != nil {
		targets = tf.calleeNodes(fn, lit)
	} else if lit != nil {
		if node := tf.w.graph.LitNode(lit); node != nil {
			targets = []*FuncNode{node}
		}
	}
	for _, target := range targets {
		s := tf.w.lookup(target)
		if s == nil {
			continue
		}
		reported := false
		forEachTaintedArg(tf, before, call, recv, s.nparams, func(idx int) {
			if reported || idx >= len(s.leaks) || s.leaks[idx] == nil {
				return
			}
			reported = true
			leak := s.leaks[idx]
			clause := fmt.Sprintf("passes it to %s, which %s (%s)", target.Name, leak.what, at(leak.pos))
			ev.callLeak(call.Pos(), fmt.Sprintf(
				"raw model value passed to %s, which %s (%s)", target.Name, leak.what, at(leak.pos)), clause)
		})
	}
}

// scanComposite checks struct literals for tainted values landing in
// unmarked fields.
func scanComposite(tf *taintFlow, before taintFact, lit *ast.CompositeLit, sanName string, ev taintEvents) {
	if ev.store == nil {
		return
	}
	info := tf.pkg.Info
	t := info.TypeOf(lit)
	if t == nil {
		return
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, el := range lit.Elts {
		var field *types.Var
		value := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			value = kv.Value
			if id, ok := kv.Key.(*ast.Ident); ok {
				field, _ = info.Uses[id].(*types.Var)
			}
		} else if i < st.NumFields() {
			field = st.Field(i)
		}
		if field == nil || tf.w.marked[field] {
			continue
		}
		if tf.tainted(before, value) {
			ev.store(value.Pos(), fmt.Sprintf(
				"raw model value stored in field %s, which is not marked //lint:source — mark it or sanitize with %s first",
				field.Name(), sanName),
				fmt.Sprintf("stores it in unmarked field %s", field.Name()))
		}
	}
}
