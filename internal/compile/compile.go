// Package compile translates Prolog clauses into BAM code (paper §2, §3.1).
//
// The compiler follows the BAM design guidelines: determinism is exploited
// through first-argument indexing (deterministic predicates create no choice
// points), unification is specialized into explicit dereference / tag-test /
// compare / bind sequences with separate read and write paths, and
// arithmetic is compiled inline. Control constructs (;/2, ->/2, \+/1) are
// normalized into auxiliary predicates with local cut, so the code generator
// only ever sees flat conjunctions of calls and builtins.
package compile

import (
	"fmt"
	"slices"
	"sort"

	"symbol/internal/bam"
	"symbol/internal/ic"
	"symbol/internal/term"
)

// Options control compilation.
type Options struct {
	// ArithChecks emits dereference and integer tag checks on arithmetic
	// operands (default true). Disabling models perfect mode analysis.
	ArithChecks bool
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options { return Options{ArithChecks: true} }

// Compiler holds program-wide compilation state.
type Compiler struct {
	opts      Options
	atoms     *term.Table
	preds     map[term.Indicator]*npred
	order     []term.Indicator
	code      []bam.Instr   // the chunk emit is filling
	full      [][]bam.Instr // chunks filled before it, in order
	nextLabel int
	nextTemp  ic.Reg
	auxN      int
	usedMeta  bool
	undefined map[term.Indicator]bool
}

type nclause struct {
	head  term.Term
	goals []term.Term
}

type npred struct {
	pi      term.Indicator
	clauses []*nclause
	hasCut  bool
	cutReg  ic.Reg // temp holding B at predicate entry, when hasCut
}

// New returns a compiler with the given options.
func New(opts Options) *Compiler {
	return &Compiler{
		opts:      opts,
		atoms:     term.NewTable(),
		preds:     map[term.Indicator]*npred{},
		nextLabel: 1, // label 0 is reserved for "fail"
		nextTemp:  ic.FirstTemp,
		undefined: map[term.Indicator]bool{},
	}
}

// Atoms exposes the atom table (shared with the rest of the pipeline).
func (c *Compiler) Atoms() *term.Table { return c.atoms }

// Undefined lists predicates that are called but never defined; calls to
// them compile to fail.
func (c *Compiler) Undefined() []term.Indicator {
	var out []term.Indicator
	for pi := range c.undefined {
		out = append(out, pi)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}

func (c *Compiler) newLabel() int {
	l := c.nextLabel
	c.nextLabel++
	return l
}

func (c *Compiler) newTemp() ic.Reg {
	r := c.nextTemp
	c.nextTemp++
	return r
}

func (c *Compiler) emit(in bam.Instr) {
	// The code grows in chunks that are never copied, and Compile joins
	// them once at their exact total: growing one slice by append would
	// copy the large bam.Instr records about three times over.
	if len(c.code) == cap(c.code) {
		if len(c.code) > 0 {
			c.full = append(c.full, c.code)
		}
		c.code = make([]bam.Instr, 0, min(max(2*cap(c.code), 64), 1024))
	}
	c.code = append(c.code, in)
}

// AddClause adds one program clause (a fact or H :- B term).
func (c *Compiler) AddClause(t term.Term) error {
	var head, body term.Term
	if x, ok := t.(*term.Compound); ok && x.Functor == ":-" && len(x.Args) == 2 {
		head, body = x.Args[0], x.Args[1]
	} else {
		head, body = t, term.TrueAtom
	}
	pi, ok := term.IndicatorOf(head)
	if !ok {
		return fmt.Errorf("invalid clause head %s", head)
	}
	if builtinGoal(pi) {
		return fmt.Errorf("cannot redefine builtin %s", pi)
	}
	goals, err := c.normalizeBody(body, head)
	if err != nil {
		return err
	}
	nc := &nclause{head: head, goals: goals}
	p := c.preds[pi]
	if p == nil {
		p = &npred{pi: pi}
		c.preds[pi] = p
		c.order = append(c.order, pi)
	}
	p.clauses = append(p.clauses, nc)
	for _, g := range goals {
		if g == term.Atom("!") {
			p.hasCut = true
		}
	}
	return nil
}

// AddProgram parses and adds every clause in src.
func (c *Compiler) AddProgram(clauses []term.Term) error {
	for _, t := range clauses {
		if err := c.AddClause(t); err != nil {
			return err
		}
	}
	return nil
}

// normalizeBody flattens a body term into a list of simple goals, then
// rewrites control constructs into auxiliary predicates. Rewriting happens
// after flattening so a construct's free variables are computed against the
// whole clause — head, earlier goals AND later goals.
func (c *Compiler) normalizeBody(body, head term.Term) ([]term.Term, error) {
	var flat []term.Term
	var walk func(t term.Term) error
	walk = func(t term.Term) error {
		switch x := t.(type) {
		case *term.Var:
			// A variable goal is an implicit metacall.
			flat = append(flat, &term.Compound{Functor: "call", Args: []term.Term{x}})
			return nil
		case *term.Compound:
			if x.Functor == "," && len(x.Args) == 2 {
				if err := walk(x.Args[0]); err != nil {
					return err
				}
				return walk(x.Args[1])
			}
		}
		flat = append(flat, t)
		return nil
	}
	if err := walk(body); err != nil {
		return nil, err
	}
	goals := make([]term.Term, len(flat))
	for i, g := range flat {
		if x, ok := g.(*term.Compound); ok &&
			(x.Functor == ";" && len(x.Args) == 2 ||
				x.Functor == "->" && len(x.Args) == 2 ||
				x.Functor == "\\+" && len(x.Args) == 1) {
			rest := append([]term.Term{head}, flat[:i]...)
			rest = append(rest, flat[i+1:]...)
			aux, err := c.makeAux(x, rest)
			if err != nil {
				return nil, err
			}
			goals[i] = aux
			continue
		}
		if x, ok := g.(*term.Compound); ok && x.Functor == "catch" && len(x.Args) == 3 {
			rest := append([]term.Term{head}, flat[:i]...)
			rest = append(rest, flat[i+1:]...)
			aux, err := c.liftCatch(x, rest)
			if err != nil {
				return nil, err
			}
			goals[i] = aux
			continue
		}
		goals[i] = g
	}
	return goals, nil
}

// liftCatch rewrites catch(G, C, R): statically known goal and recovery
// arguments are lambda-lifted into fresh auxiliary predicates closed over
// their shared variables, so the runtime metacall ($meta/1) only ever sees
// plain predicate calls. This also gives the ISO call/1 semantics for free:
// a cut inside G or R is local to it. Variable arguments are left alone and
// dispatch at run time.
func (c *Compiler) liftCatch(x *term.Compound, rest []term.Term) (term.Term, error) {
	out := &term.Compound{Functor: x.Functor, Args: append([]term.Term(nil), x.Args...)}
	for _, ai := range []int{0, 2} {
		switch x.Args[ai].(type) {
		case term.Atom, *term.Compound:
		default:
			continue // variables (runtime dispatch) and integers (fail)
		}
		// The lifted goal's context is everything else in the clause plus
		// the other two catch arguments.
		ctx := append([]term.Term(nil), rest...)
		for j, a := range x.Args {
			if j != ai {
				ctx = append(ctx, a)
			}
		}
		call, addAux := c.liftTarget(x.Args[ai], ctx)
		if err := addAux(x.Args[ai]); err != nil {
			return nil, err
		}
		out.Args[ai] = call
	}
	return out, nil
}

// liftTarget mints a fresh auxiliary predicate head closed over the
// variables x shares with context, returning the replacement call goal and
// a function that adds one clause to the new predicate.
func (c *Compiler) liftTarget(x term.Term, context []term.Term) (term.Term, func(term.Term) error) {
	inner := term.Vars(x, nil)
	var outside []*term.Var
	for _, g := range context {
		outside = term.Vars(g, outside)
	}
	var args []term.Term
	for _, v := range inner {
		for _, o := range outside {
			if v == o {
				args = append(args, v)
				break
			}
		}
	}
	c.auxN++
	name := fmt.Sprintf("$aux%d", c.auxN)
	var call term.Term
	if len(args) == 0 {
		call = term.Atom(name)
	} else {
		call = &term.Compound{Functor: name, Args: args}
	}
	addAux := func(body term.Term) error {
		var cl term.Term = &term.Compound{Functor: ":-", Args: []term.Term{call, body}}
		return c.AddClause(cl)
	}
	return call, addAux
}

// makeAux creates an auxiliary predicate for a control construct and returns
// the replacement call goal. Free variables shared with the rest of the
// clause become arguments.
func (c *Compiler) makeAux(x *term.Compound, context []term.Term) (term.Term, error) {
	call, addAux := c.liftTarget(x, context)
	cut := term.Atom("!")
	switch x.Functor {
	case ";":
		if ite, ok := x.Args[0].(*term.Compound); ok && ite.Functor == "->" && len(ite.Args) == 2 {
			// (C -> T ; E): local cut after the condition.
			if err := addAux(term.Comma(ite.Args[0], term.Comma(cut, ite.Args[1]))); err != nil {
				return nil, err
			}
			if err := addAux(x.Args[1]); err != nil {
				return nil, err
			}
			return call, nil
		}
		if err := addAux(x.Args[0]); err != nil {
			return nil, err
		}
		if err := addAux(x.Args[1]); err != nil {
			return nil, err
		}
		return call, nil
	case "->":
		if err := addAux(term.Comma(x.Args[0], term.Comma(cut, x.Args[1]))); err != nil {
			return nil, err
		}
		return call, nil
	case "\\+":
		if err := addAux(term.Comma(x.Args[0], term.Comma(cut, term.Atom("fail")))); err != nil {
			return nil, err
		}
		if err := addAux(term.TrueAtom); err != nil {
			return nil, err
		}
		return call, nil
	}
	return nil, fmt.Errorf("unsupported control construct %s", x.Functor)
}

// QueryEntry names the synthetic procedure a query program (a knowledge
// base posed a goal) starts in. A program that defines QueryEntry/0 starts
// there instead of main/0, so the goal may still call the knowledge base's
// own main/0.
const QueryEntry = "$query"

// Compile generates BAM code for every predicate added so far. The returned
// unit contains one procedure per predicate; the caller (internal/expand)
// adds the entry stub and runtime routines.
func (c *Compiler) Compile() (*bam.Unit, error) {
	entry := term.Indicator{Name: QueryEntry}
	if _, ok := c.preds[entry]; !ok {
		entry.Name = "main"
		if _, ok := c.preds[entry]; !ok {
			return nil, fmt.Errorf("program must define main/0")
		}
	}
	if err := c.resolveLibrary(); err != nil {
		return nil, err
	}
	for _, pi := range c.order {
		if err := c.compilePred(c.preds[pi]); err != nil {
			return nil, fmt.Errorf("%s: %w", pi, err)
		}
	}
	if c.usedMeta {
		c.emitMetaDispatcher()
	}
	code := slices.Concat(append(c.full, c.code)...)
	return &bam.Unit{Code: code, NumLabels: c.nextLabel, NextTemp: c.nextTemp, Entry: entry.String()}, nil
}

// --- first-argument indexing ---------------------------------------------

// selKind classifies a clause's first head argument.
type selKind uint8

const (
	selVar selKind = iota
	selInt
	selAtom
	selList
	selStruct
)

type selector struct {
	kind  selKind
	atom  string
	n     int64
	arity int
}

func selectorOf(head term.Term, arity int) selector {
	if arity == 0 {
		return selector{kind: selVar}
	}
	h := head.(*term.Compound)
	switch a := h.Args[0].(type) {
	case *term.Var:
		return selector{kind: selVar}
	case term.Int:
		return selector{kind: selInt, n: int64(a)}
	case term.Atom:
		if a == term.NilAtom {
			return selector{kind: selAtom, atom: "[]"}
		}
		return selector{kind: selAtom, atom: string(a)}
	case *term.Compound:
		if a.Functor == term.ConsName && len(a.Args) == 2 {
			return selector{kind: selList}
		}
		return selector{kind: selStruct, atom: a.Functor, arity: len(a.Args)}
	}
	return selector{kind: selVar}
}

// compilePred emits the indexing header, try chains and clause bodies.
func (c *Compiler) compilePred(p *npred) error {
	pi := p.pi
	c.emit(bam.Instr{Op: bam.Proc, Name: pi.Name, Arity: pi.Arity})
	c.atoms.Intern(pi.Name)
	if p.hasCut {
		p.cutReg = c.newTemp()
		c.emit(bam.Instr{Op: bam.SaveB, Dst: p.cutReg})
	}

	// Clause entry labels.
	labels := make([]int, len(p.clauses))
	for i := range labels {
		labels[i] = c.newLabel()
	}

	sels := make([]selector, len(p.clauses))
	allVar := true
	for i, cl := range p.clauses {
		sels[i] = selectorOf(cl.head, pi.Arity)
		if sels[i].kind != selVar {
			allVar = false
		}
	}

	all := make([]int, len(p.clauses))
	for i := range all {
		all[i] = i
	}

	chains := map[string]int{} // subset key → chain entry label
	emitChain := func(subset []int) int {
		if len(subset) == 0 {
			return 0 // fail
		}
		key := fmt.Sprint(subset)
		if l, ok := chains[key]; ok {
			return l
		}
		entry := c.newLabel()
		chains[key] = entry
		c.emit(bam.Instr{Op: bam.Lbl, L: entry})
		if len(subset) == 1 {
			c.emit(bam.Instr{Op: bam.Jump, L: labels[subset[0]]})
			return entry
		}
		n := int64(pi.Arity)
		stubs := make([]int, len(subset))
		for i := 1; i < len(subset); i++ {
			stubs[i] = c.newLabel()
		}
		c.emit(bam.Instr{Op: bam.Try, L: stubs[1], N: n})
		c.emit(bam.Instr{Op: bam.Jump, L: labels[subset[0]]})
		for i := 1; i < len(subset); i++ {
			c.emit(bam.Instr{Op: bam.Lbl, L: stubs[i]})
			c.emit(bam.Instr{Op: bam.RestoreArgs, N: n})
			if i == len(subset)-1 {
				c.emit(bam.Instr{Op: bam.Trust})
			} else {
				c.emit(bam.Instr{Op: bam.Retry, L: stubs[i+1]})
			}
			c.emit(bam.Instr{Op: bam.Jump, L: labels[subset[i]]})
		}
		return entry
	}

	if pi.Arity == 0 || allVar || len(p.clauses) == 1 {
		// No useful index: a single chain over all clauses.
		if len(p.clauses) > 1 {
			l := emitChain(all)
			_ = l // chain emitted in-line right here; fall through is wrong,
			// so make the entry jump explicit below.
		}
		if len(p.clauses) == 1 {
			c.emit(bam.Instr{Op: bam.Jump, L: labels[0]})
		}
	} else {
		c.emitIndex(p, sels, labels, emitChain)
	}

	for i, cl := range p.clauses {
		c.emit(bam.Instr{Op: bam.Lbl, L: labels[i]})
		if err := c.compileClause(p, cl); err != nil {
			return err
		}
	}
	return nil
}

// emitIndex emits the first-argument dispatch: dereference A0, switch on its
// tag, and within the int/atom/struct classes compare against the distinct
// selector constants.
func (c *Compiler) emitIndex(p *npred, sels []selector, labels []int, emitChain func([]int) int) {
	// Candidate subsets per class, preserving clause order.
	subset := func(pred func(selector) bool) []int {
		var out []int
		for i, s := range sels {
			if s.kind == selVar || pred(s) {
				out = append(out, i)
			}
		}
		return out
	}
	varOnly := subset(func(s selector) bool { return false })

	d0 := c.newTemp()
	c.emit(bam.Instr{Op: bam.Deref, Dst: d0, Src: bam.Reg(ic.ArgReg(0))})
	c.emit(bam.Instr{Op: bam.Move, Dst: ic.ArgReg(0), Src: bam.Reg(d0)})

	// Gather distinct constants per class.
	type constCase struct {
		v     bam.Val
		items []int
	}
	var intCases, atomCases, strCases []constCase
	addCase := func(cases *[]constCase, v bam.Val, match func(selector) bool) {
		for _, cc := range *cases {
			if cc.v == v {
				return
			}
		}
		*cases = append(*cases, constCase{v: v, items: subset(match)})
	}
	for _, s := range sels {
		s := s
		switch s.kind {
		case selInt:
			addCase(&intCases, bam.IntV(s.n), func(x selector) bool { return x.kind == selInt && x.n == s.n })
		case selAtom:
			c.atoms.Intern(s.atom)
			addCase(&atomCases, bam.AtomV(s.atom), func(x selector) bool { return x.kind == selAtom && x.atom == s.atom })
		case selStruct:
			c.atoms.Intern(s.atom)
			addCase(&strCases, bam.FunV(s.atom, s.arity), func(x selector) bool {
				return x.kind == selStruct && x.atom == s.atom && x.arity == s.arity
			})
		}
	}
	listSubset := subset(func(s selector) bool { return s.kind == selList })

	// Emit the selection bodies after the switch so the switch itself is a
	// compact dispatch. Plan labels first.
	needInt := len(intCases) > 0
	needAtom := len(atomCases) > 0
	needStr := len(strCases) > 0

	lblOrFail := func(need bool) int {
		if need {
			return c.newLabel()
		}
		// No clause can match this class unless a var-headed clause exists.
		if len(varOnly) == 0 {
			return 0
		}
		return c.newLabel()
	}
	lInt := lblOrFail(needInt)
	lAtm := lblOrFail(needAtom)
	lStr := lblOrFail(needStr)
	lVar := c.newLabel()
	var lLst int
	if len(listSubset) > 0 {
		lLst = c.newLabel()
	}

	c.emit(bam.Instr{Op: bam.SwitchTag, Reg1: d0,
		LVar: lVar, LInt: lInt, LAtm: lAtm, LLst: lLst, LStr: lStr})

	// Var entry: try everything.
	c.emit(bam.Instr{Op: bam.Lbl, L: lVar})
	allIdx := make([]int, len(sels))
	for i := range allIdx {
		allIdx[i] = i
	}
	c.emit(bam.Instr{Op: bam.Jump, L: emitChain(allIdx)})

	emitConstClass := func(entry int, cases []constCase, loadFun bool) {
		if entry == 0 {
			return
		}
		c.emit(bam.Instr{Op: bam.Lbl, L: entry})
		key := d0
		if loadFun {
			f := c.newTemp()
			c.emit(bam.Instr{Op: bam.LoadM, Dst: f, Reg1: d0, N: 0})
			key = f
		}
		for _, cc := range cases {
			hit := c.newLabel()
			c.emit(bam.Instr{Op: bam.BrEq, V1: bam.Reg(key), Cond: ic.CondEq, V2: cc.v, L: hit})
			// Defer the chain; record to emit after the compare ladder.
			defer func(hit int, items []int) {
				c.emit(bam.Instr{Op: bam.Lbl, L: hit})
				c.emit(bam.Instr{Op: bam.Jump, L: emitChain(items)})
			}(hit, cc.items)
		}
		// No constant matched: only var-headed clauses remain.
		c.emit(bam.Instr{Op: bam.Jump, L: emitChain(varOnly)})
	}
	emitConstClass(lInt, intCases, false)
	emitConstClass(lAtm, atomCases, false)
	emitConstClass(lStr, strCases, true)
	if lLst != 0 {
		c.emit(bam.Instr{Op: bam.Lbl, L: lLst})
		c.emit(bam.Instr{Op: bam.Jump, L: emitChain(listSubset)})
	}
}
