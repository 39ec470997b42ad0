// Package compile lowers a type-checked mini-C AST to ir bytecode and
// annotates it with the construct metadata Alchemist needs: which branches
// are loop predicates and where each predicate's construct closes (the
// global PC of its immediate post-dominator).
package compile

import (
	"fmt"

	"alchemist/internal/ast"
	"alchemist/internal/cfg"
	"alchemist/internal/dom"
	"alchemist/internal/ir"
	"alchemist/internal/opt"
	"alchemist/internal/parser"
	"alchemist/internal/sema"
	"alchemist/internal/source"
	"alchemist/internal/token"
)

// Build parses, checks, and compiles mini-C source text.
func Build(name, src string) (*ir.Program, error) {
	return BuildConfig(name, src, Config{})
}

// Config selects compilation options.
type Config struct {
	// Optimize enables the opt package's passes (constant folding,
	// unreachable-code elimination) before PCs are assigned.
	Optimize bool
}

// BuildConfig parses, checks, and compiles with explicit options.
func BuildConfig(name, src string, cfg Config) (*ir.Program, error) {
	file := source.NewFile(name, src)
	var diags source.DiagList
	prog := parser.Parse(file, &diags)
	if err := diags.Err(); err != nil {
		return nil, err
	}
	info := sema.Check(prog, &diags)
	if err := diags.Err(); err != nil {
		return nil, err
	}
	return CompileConfig(info, cfg)
}

// Compile lowers a checked program. The sema info must be error-free.
func Compile(info *sema.Info) (*ir.Program, error) {
	return CompileConfig(info, Config{})
}

// CompileConfig lowers a checked program with options.
func CompileConfig(info *sema.Info, cfg Config) (*ir.Program, error) {
	p := &ir.Program{File: info.Program.File}

	// Lay out globals: address 0 is reserved as null.
	next := int64(1)
	p.GlobalAddr = make([]int64, len(info.Globals))
	p.GlobalArray = make([]ir.ArrayRef, len(info.Globals))
	p.GlobalInit = make([]int64, len(info.Globals))
	for i, g := range info.Globals {
		p.GlobalNames = append(p.GlobalNames, g.Name)
		if g.Kind == sema.GlobalArray {
			size, _ := sema.ConstValue(g.Decl.Size)
			if size < 0 || size > ir.MaxArrayLen {
				return nil, fmt.Errorf("%s: global array %q has invalid size %d", g.Pos, g.Name, size)
			}
			p.GlobalArray[i] = ir.MakeArrayRef(next, size)
			next += size
		} else {
			p.GlobalAddr[i] = next
			if g.Decl.Init != nil {
				v, _ := sema.ConstValue(g.Decl.Init)
				p.GlobalInit[i] = v
			}
			next++
		}
	}
	p.GlobalWords = next

	// Compile functions in declaration order.
	funcIR := make(map[string]*ir.Func)
	for _, f := range info.Program.Funcs {
		fi := info.Funcs[f.Name]
		if fi == nil || fi.Decl != f {
			continue
		}
		irf := &ir.Func{Name: f.Name, NParams: len(fi.Params), Pos: f.Pos()}
		p.Funcs = append(p.Funcs, irf)
		funcIR[f.Name] = irf
	}
	for _, f := range info.Program.Funcs {
		irf := funcIR[f.Name]
		if irf == nil {
			continue
		}
		fc := &funcCompiler{
			prog:    p,
			info:    info,
			fi:      info.Funcs[f.Name],
			fn:      irf,
			funcIR:  funcIR,
			nextReg: info.Funcs[f.Name].NumSlots,
		}
		if err := fc.compile(); err != nil {
			return nil, err
		}
	}
	p.Main = funcIR["main"]
	if cfg.Optimize {
		opt.Program(p)
	}
	p.Finalize()
	annotateConstructs(p)
	return p, nil
}

// annotateConstructs computes, for every branch, the global PC at which
// its construct closes: the first instruction of the branch block's
// immediate post-dominator. It marks that instruction Pops.
func annotateConstructs(p *ir.Program) {
	for _, f := range p.Funcs {
		g := cfg.New(f)
		pdt := dom.PostDominators(g)
		for i := range f.Code {
			in := &f.Code[i]
			if in.Op != ir.OpBr {
				continue
			}
			b := g.BlockOf(i)
			ip := pdt.Idom[b.ID]
			if ip == -1 || ip == g.Exit || g.Blocks[ip].Start == g.Blocks[ip].End {
				in.PopPC = ir.NoPopPC
				continue
			}
			in.PopPC = f.GPC(g.Blocks[ip].Start)
			f.Code[g.Blocks[ip].Start].Pops = true
		}
	}
}

type funcCompiler struct {
	prog   *ir.Program
	info   *sema.Info
	fi     *sema.FuncInfo
	fn     *ir.Func
	funcIR map[string]*ir.Func

	nextReg int // temp watermark
	maxReg  int

	loops []*loopCtx
}

type loopCtx struct {
	breakPatches    []int
	continuePatches []int
}

func (fc *funcCompiler) compile() error {
	body := fc.fi.Decl.Body
	if err := fc.stmt(body); err != nil {
		return err
	}
	// Implicit return at the end of the function.
	end := body.LBrace
	if n := len(body.List); n > 0 {
		end = body.List[n-1].Pos()
	}
	if fc.fi.Decl.Returns == ast.TypeInt {
		// Falling off the end of an int function returns 0.
		r := fc.temp()
		fc.emit(ir.Instr{Op: ir.OpConst, A: r, Imm: 0, Pos: end})
		fc.emit(ir.Instr{Op: ir.OpRet, A: r, Pos: end})
	} else {
		fc.emit(ir.Instr{Op: ir.OpRet, A: -1, Pos: end})
	}
	fc.fn.NumRegs = fc.maxRegs()
	return nil
}

func (fc *funcCompiler) maxRegs() int {
	n := fc.fi.NumSlots
	if fc.maxReg > n {
		n = fc.maxReg
	}
	return n
}

func (fc *funcCompiler) emit(in ir.Instr) int {
	fc.fn.Code = append(fc.fn.Code, in)
	return len(fc.fn.Code) - 1
}

func (fc *funcCompiler) here() int { return len(fc.fn.Code) }

func (fc *funcCompiler) temp() int {
	r := fc.nextReg
	fc.nextReg++
	if fc.nextReg > fc.maxReg {
		fc.maxReg = fc.nextReg
	}
	return r
}

// resetTemps releases expression temporaries between statements.
func (fc *funcCompiler) resetTemps() { fc.nextReg = fc.fi.NumSlots }

func (fc *funcCompiler) patch(idx, target int) {
	in := &fc.fn.Code[idx]
	switch in.Op {
	case ir.OpJmp:
		in.Targets[0] = target
	case ir.OpBr:
		if in.Targets[0] == -1 {
			in.Targets[0] = target
		}
		if in.Targets[1] == -1 {
			in.Targets[1] = target
		}
	}
}

// ---------- Statements ----------

func (fc *funcCompiler) stmt(s ast.Stmt) error {
	if s == nil {
		return nil
	}
	fc.resetTemps()
	switch x := s.(type) {
	case *ast.BlockStmt:
		for _, sub := range x.List {
			if err := fc.stmt(sub); err != nil {
				return err
			}
		}
		return nil
	case *ast.DeclStmt:
		return fc.localDecl(x.Decl)
	case *ast.ExprStmt:
		_, err := fc.exprDiscard(x.X)
		return err
	case *ast.AssignStmt:
		return fc.assign(x)
	case *ast.IfStmt:
		return fc.ifStmt(x)
	case *ast.WhileStmt:
		return fc.whileStmt(x)
	case *ast.BreakStmt:
		if len(fc.loops) == 0 {
			return fmt.Errorf("%s: break outside loop", x.Pos())
		}
		idx := fc.emit(ir.Instr{Op: ir.OpJmp, Targets: [2]int{-1, -1}, Pos: x.Pos()})
		lc := fc.loops[len(fc.loops)-1]
		lc.breakPatches = append(lc.breakPatches, idx)
		return nil
	case *ast.ContinueStmt:
		if len(fc.loops) == 0 {
			return fmt.Errorf("%s: continue outside loop", x.Pos())
		}
		idx := fc.emit(ir.Instr{Op: ir.OpJmp, Targets: [2]int{-1, -1}, Pos: x.Pos()})
		lc := fc.loops[len(fc.loops)-1]
		lc.continuePatches = append(lc.continuePatches, idx)
		return nil
	case *ast.ReturnStmt:
		if x.X == nil {
			fc.emit(ir.Instr{Op: ir.OpRet, A: -1, Pos: x.Pos()})
			return nil
		}
		r, err := fc.expr(x.X)
		if err != nil {
			return err
		}
		fc.emit(ir.Instr{Op: ir.OpRet, A: r, Pos: x.Pos()})
		return nil
	case *ast.SpawnStmt:
		callee := fc.info.CalleeFunc[x.Call]
		if callee == nil {
			return fmt.Errorf("%s: spawn target is not a user function", x.Pos())
		}
		args, err := fc.callArgs(x.Call)
		if err != nil {
			return err
		}
		target := fc.funcIR[callee.Decl.Name]
		target.IsSpawnable = true
		fc.emit(ir.Instr{Op: ir.OpSpawn, Callee: target, Args: args, Pos: x.Pos()})
		return nil
	case *ast.SyncStmt:
		fc.emit(ir.Instr{Op: ir.OpSync, Pos: x.Pos()})
		return nil
	}
	return fmt.Errorf("%s: unsupported statement %T", s.Pos(), s)
}

func (fc *funcCompiler) localDecl(d *ast.VarDecl) error {
	sym := fc.symbolForDecl(d)
	if sym == nil {
		return fmt.Errorf("%s: internal: no symbol for local %q", d.Pos(), d.Name)
	}
	switch {
	case d.IsArray && d.Init != nil:
		r, err := fc.expr(d.Init)
		if err != nil {
			return err
		}
		fc.emit(ir.Instr{Op: ir.OpMov, A: sym.Slot, B: r, Pos: d.Pos()})
	case d.IsArray:
		r, err := fc.expr(d.Size)
		if err != nil {
			return err
		}
		fc.emit(ir.Instr{Op: ir.OpAlloc, A: sym.Slot, B: r, Pos: d.Pos()})
	case d.Init != nil:
		r, err := fc.expr(d.Init)
		if err != nil {
			return err
		}
		fc.emit(ir.Instr{Op: ir.OpMov, A: sym.Slot, B: r, Pos: d.Pos()})
	default:
		fc.emit(ir.Instr{Op: ir.OpConst, A: sym.Slot, Imm: 0, Pos: d.Pos()})
	}
	return nil
}

func (fc *funcCompiler) symbolForDecl(d *ast.VarDecl) *sema.Symbol {
	for _, l := range fc.fi.Locals {
		if l.Decl == d {
			return l
		}
	}
	return nil
}

func (fc *funcCompiler) assign(a *ast.AssignStmt) error {
	switch lhs := a.LHS.(type) {
	case *ast.Ident:
		sym := fc.info.Uses[lhs]
		if sym == nil {
			return fmt.Errorf("%s: unresolved %q", lhs.Pos(), lhs.Name)
		}
		switch sym.Kind {
		case sema.LocalScalar, sema.ParamScalar, sema.LocalArray, sema.ParamArray:
			if a.Op == token.Assign {
				r, err := fc.expr(a.RHS)
				if err != nil {
					return err
				}
				fc.emit(ir.Instr{Op: ir.OpMov, A: sym.Slot, B: r, Pos: lhs.Pos()})
				return nil
			}
			r, err := fc.expr(a.RHS)
			if err != nil {
				return err
			}
			op := binOpFor(token.BinaryForAssign(a.Op))
			fc.emit(ir.Instr{Op: op, A: sym.Slot, B: sym.Slot, C: r, Pos: lhs.Pos()})
			return nil
		case sema.GlobalScalar:
			addr := fc.prog.GlobalAddr[fc.globalIndex(sym)]
			if a.Op == token.Assign {
				r, err := fc.expr(a.RHS)
				if err != nil {
					return err
				}
				fc.emit(ir.Instr{Op: ir.OpStoreG, B: r, Imm: addr, Pos: lhs.Pos()})
				return nil
			}
			cur := fc.temp()
			fc.emit(ir.Instr{Op: ir.OpLoadG, A: cur, Imm: addr, Pos: lhs.Pos()})
			r, err := fc.expr(a.RHS)
			if err != nil {
				return err
			}
			dst := fc.temp()
			op := binOpFor(token.BinaryForAssign(a.Op))
			fc.emit(ir.Instr{Op: op, A: dst, B: cur, C: r, Pos: lhs.Pos()})
			fc.emit(ir.Instr{Op: ir.OpStoreG, B: dst, Imm: addr, Pos: lhs.Pos()})
			return nil
		default:
			return fmt.Errorf("%s: cannot assign to %s %q", lhs.Pos(), sym.Kind, lhs.Name)
		}
	case *ast.IndexExpr:
		baseReg, idxReg, err := fc.indexOperands(lhs)
		if err != nil {
			return err
		}
		if a.Op == token.Assign {
			r, err := fc.expr(a.RHS)
			if err != nil {
				return err
			}
			fc.emit(ir.Instr{Op: ir.OpStoreEl, A: baseReg, B: idxReg, C: r, Pos: lhs.Pos()})
			return nil
		}
		cur := fc.temp()
		fc.emit(ir.Instr{Op: ir.OpLoadEl, A: cur, B: baseReg, C: idxReg, Pos: lhs.Pos()})
		r, err := fc.expr(a.RHS)
		if err != nil {
			return err
		}
		dst := fc.temp()
		op := binOpFor(token.BinaryForAssign(a.Op))
		fc.emit(ir.Instr{Op: op, A: dst, B: cur, C: r, Pos: lhs.Pos()})
		fc.emit(ir.Instr{Op: ir.OpStoreEl, A: baseReg, B: idxReg, C: dst, Pos: lhs.Pos()})
		return nil
	}
	return fmt.Errorf("%s: invalid assignment target", a.LHS.Pos())
}

func (fc *funcCompiler) ifStmt(s *ast.IfStmt) error {
	cond, err := fc.expr(s.Cond)
	if err != nil {
		return err
	}
	br := fc.emit(ir.Instr{Op: ir.OpBr, A: cond, Targets: [2]int{-1, -1}, Pos: s.Pos(), PopPC: ir.NoPopPC})
	fc.fn.Code[br].Targets[0] = fc.here()
	if err := fc.stmt(s.Then); err != nil {
		return err
	}
	if s.Else == nil {
		fc.fn.Code[br].Targets[1] = fc.here()
		return nil
	}
	skip := fc.emit(ir.Instr{Op: ir.OpJmp, Targets: [2]int{-1, -1}, Pos: s.Else.Pos()})
	fc.fn.Code[br].Targets[1] = fc.here()
	if err := fc.stmt(s.Else); err != nil {
		return err
	}
	fc.patch(skip, fc.here())
	return nil
}

func (fc *funcCompiler) whileStmt(s *ast.WhileStmt) error {
	head := fc.here()
	fc.resetTemps()
	cond, err := fc.expr(s.Cond)
	if err != nil {
		return err
	}
	br := fc.emit(ir.Instr{
		Op: ir.OpBr, A: cond, Targets: [2]int{-1, -1},
		Pos: s.Pos(), IsLoopPred: true, PopPC: ir.NoPopPC,
	})
	fc.fn.Code[br].Targets[0] = fc.here()

	lc := &loopCtx{}
	fc.loops = append(fc.loops, lc)
	if err := fc.stmt(s.Body); err != nil {
		return err
	}
	fc.loops = fc.loops[:len(fc.loops)-1]

	postStart := fc.here()
	if s.Post != nil {
		if err := fc.stmt(s.Post); err != nil {
			return err
		}
	}
	fc.emit(ir.Instr{Op: ir.OpJmp, Targets: [2]int{head, -1}, Pos: s.Pos()})
	exit := fc.here()
	fc.fn.Code[br].Targets[1] = exit
	for _, idx := range lc.breakPatches {
		fc.patch(idx, exit)
	}
	for _, idx := range lc.continuePatches {
		fc.patch(idx, postStart)
	}
	return nil
}

// ---------- Expressions ----------

func binOpFor(k token.Kind) ir.Op {
	switch k {
	case token.Plus:
		return ir.OpAdd
	case token.Minus:
		return ir.OpSub
	case token.Star:
		return ir.OpMul
	case token.Slash:
		return ir.OpDiv
	case token.Percent:
		return ir.OpMod
	case token.Amp:
		return ir.OpAnd
	case token.Or:
		return ir.OpOr
	case token.Xor:
		return ir.OpXor
	case token.Shl:
		return ir.OpShl
	case token.Shr:
		return ir.OpShr
	case token.Eq:
		return ir.OpEq
	case token.Ne:
		return ir.OpNe
	case token.Lt:
		return ir.OpLt
	case token.Le:
		return ir.OpLe
	case token.Gt:
		return ir.OpGt
	case token.Ge:
		return ir.OpGe
	}
	return ir.OpInvalid
}

// exprDiscard compiles an expression for side effects only. Void calls get
// A == -1; other expressions compile normally and the value is ignored.
func (fc *funcCompiler) exprDiscard(e ast.Expr) (int, error) {
	if call, ok := e.(*ast.CallExpr); ok {
		return fc.call(call, true)
	}
	return fc.expr(e)
}

// expr compiles e and returns the register holding its value.
func (fc *funcCompiler) expr(e ast.Expr) (int, error) {
	switch x := e.(type) {
	case *ast.IntLit:
		r := fc.temp()
		fc.emit(ir.Instr{Op: ir.OpConst, A: r, Imm: x.Val, Pos: x.Pos()})
		return r, nil
	case *ast.StrLit:
		return 0, fmt.Errorf("%s: string literal outside print", x.Pos())
	case *ast.Ident:
		return fc.identValue(x)
	case *ast.UnaryExpr:
		r, err := fc.expr(x.X)
		if err != nil {
			return 0, err
		}
		dst := fc.temp()
		var op ir.Op
		switch x.Op {
		case token.Minus:
			op = ir.OpNeg
		case token.Not:
			op = ir.OpLNot
		case token.Tilde:
			op = ir.OpBNot
		default:
			return 0, fmt.Errorf("%s: bad unary op %s", x.Pos(), x.Op)
		}
		fc.emit(ir.Instr{Op: op, A: dst, B: r, Pos: x.Pos()})
		return dst, nil
	case *ast.BinaryExpr:
		if x.Op == token.LAnd || x.Op == token.LOr {
			return fc.shortCircuit(x)
		}
		a, err := fc.expr(x.X)
		if err != nil {
			return 0, err
		}
		b, err := fc.expr(x.Y)
		if err != nil {
			return 0, err
		}
		dst := fc.temp()
		fc.emit(ir.Instr{Op: binOpFor(x.Op), A: dst, B: a, C: b, Pos: x.Pos()})
		return dst, nil
	case *ast.CondExpr:
		return fc.condExpr(x)
	case *ast.IndexExpr:
		baseReg, idxReg, err := fc.indexOperands(x)
		if err != nil {
			return 0, err
		}
		dst := fc.temp()
		fc.emit(ir.Instr{Op: ir.OpLoadEl, A: dst, B: baseReg, C: idxReg, Pos: x.Pos()})
		return dst, nil
	case *ast.CallExpr:
		return fc.call(x, false)
	}
	return 0, fmt.Errorf("%s: unsupported expression %T", e.Pos(), e)
}

func (fc *funcCompiler) identValue(x *ast.Ident) (int, error) {
	sym := fc.info.Uses[x]
	if sym == nil {
		return 0, fmt.Errorf("%s: unresolved %q", x.Pos(), x.Name)
	}
	switch sym.Kind {
	case sema.LocalScalar, sema.ParamScalar, sema.LocalArray, sema.ParamArray:
		return sym.Slot, nil
	case sema.GlobalScalar:
		r := fc.temp()
		fc.emit(ir.Instr{Op: ir.OpLoadG, A: r, Imm: fc.prog.GlobalAddr[fc.globalIndex(sym)], Pos: x.Pos()})
		return r, nil
	case sema.GlobalArray:
		r := fc.temp()
		ref := fc.prog.GlobalArray[fc.globalIndex(sym)]
		fc.emit(ir.Instr{Op: ir.OpConst, A: r, Imm: int64(ref), Pos: x.Pos()})
		return r, nil
	}
	return 0, fmt.Errorf("%s: bad symbol kind for %q", x.Pos(), x.Name)
}

func (fc *funcCompiler) globalIndex(sym *sema.Symbol) int { return sym.Slot }

func (fc *funcCompiler) indexOperands(x *ast.IndexExpr) (baseReg, idxReg int, err error) {
	baseReg, err = fc.expr(x.X)
	if err != nil {
		return 0, 0, err
	}
	idxReg, err = fc.expr(x.Index)
	if err != nil {
		return 0, 0, err
	}
	return baseReg, idxReg, nil
}

func (fc *funcCompiler) shortCircuit(x *ast.BinaryExpr) (int, error) {
	dst := fc.temp()
	a, err := fc.expr(x.X)
	if err != nil {
		return 0, err
	}
	br := fc.emit(ir.Instr{Op: ir.OpBr, A: a, Targets: [2]int{-1, -1}, Pos: x.Pos(), PopPC: ir.NoPopPC})
	evalY := func() error {
		b, err := fc.expr(x.Y)
		if err != nil {
			return err
		}
		zero := fc.temp()
		fc.emit(ir.Instr{Op: ir.OpConst, A: zero, Imm: 0, Pos: x.Pos()})
		fc.emit(ir.Instr{Op: ir.OpNe, A: dst, B: b, C: zero, Pos: x.Pos()})
		return nil
	}
	if x.Op == token.LAnd {
		// taken -> evaluate Y; not taken -> dst = 0
		fc.fn.Code[br].Targets[0] = fc.here()
		if err := evalY(); err != nil {
			return 0, err
		}
		skip := fc.emit(ir.Instr{Op: ir.OpJmp, Targets: [2]int{-1, -1}, Pos: x.Pos()})
		fc.fn.Code[br].Targets[1] = fc.here()
		fc.emit(ir.Instr{Op: ir.OpConst, A: dst, Imm: 0, Pos: x.Pos()})
		fc.patch(skip, fc.here())
		return dst, nil
	}
	// LOr: taken -> dst = 1; not taken -> evaluate Y
	fc.fn.Code[br].Targets[0] = fc.here()
	fc.emit(ir.Instr{Op: ir.OpConst, A: dst, Imm: 1, Pos: x.Pos()})
	skip := fc.emit(ir.Instr{Op: ir.OpJmp, Targets: [2]int{-1, -1}, Pos: x.Pos()})
	fc.fn.Code[br].Targets[1] = fc.here()
	if err := evalY(); err != nil {
		return 0, err
	}
	fc.patch(skip, fc.here())
	return dst, nil
}

func (fc *funcCompiler) condExpr(x *ast.CondExpr) (int, error) {
	dst := fc.temp()
	cond, err := fc.expr(x.Cond)
	if err != nil {
		return 0, err
	}
	br := fc.emit(ir.Instr{Op: ir.OpBr, A: cond, Targets: [2]int{-1, -1}, Pos: x.Pos(), PopPC: ir.NoPopPC})
	fc.fn.Code[br].Targets[0] = fc.here()
	t, err := fc.expr(x.Then)
	if err != nil {
		return 0, err
	}
	fc.emit(ir.Instr{Op: ir.OpMov, A: dst, B: t, Pos: x.Then.Pos()})
	skip := fc.emit(ir.Instr{Op: ir.OpJmp, Targets: [2]int{-1, -1}, Pos: x.Pos()})
	fc.fn.Code[br].Targets[1] = fc.here()
	e, err := fc.expr(x.Else)
	if err != nil {
		return 0, err
	}
	fc.emit(ir.Instr{Op: ir.OpMov, A: dst, B: e, Pos: x.Else.Pos()})
	fc.patch(skip, fc.here())
	return dst, nil
}

func (fc *funcCompiler) callArgs(call *ast.CallExpr) ([]int, error) {
	var args []int
	for _, a := range call.Args {
		r, err := fc.expr(a)
		if err != nil {
			return nil, err
		}
		args = append(args, r)
	}
	return args, nil
}

func (fc *funcCompiler) call(call *ast.CallExpr, discard bool) (int, error) {
	if b, ok := fc.info.CalleeBuiltin[call]; ok {
		return fc.builtinCall(call, b)
	}
	callee := fc.info.CalleeFunc[call]
	if callee == nil {
		return 0, fmt.Errorf("%s: unresolved call to %q", call.Pos(), call.Fun.Name)
	}
	args, err := fc.callArgs(call)
	if err != nil {
		return 0, err
	}
	dst := -1
	if callee.Decl.Returns == ast.TypeInt && !discard {
		dst = fc.temp()
	}
	fc.emit(ir.Instr{Op: ir.OpCall, A: dst, Callee: fc.funcIR[callee.Decl.Name], Args: args, Pos: call.Pos()})
	if dst == -1 {
		dst = 0
	}
	return dst, nil
}

func (fc *funcCompiler) builtinCall(call *ast.CallExpr, b sema.Builtin) (int, error) {
	switch b {
	case sema.BuiltinPrint:
		for _, a := range call.Args {
			if s, ok := a.(*ast.StrLit); ok {
				idx := int64(len(fc.prog.Strings))
				fc.prog.Strings = append(fc.prog.Strings, s.Val)
				fc.emit(ir.Instr{Op: ir.OpPrintStr, Imm: idx, Pos: a.Pos()})
				continue
			}
			r, err := fc.expr(a)
			if err != nil {
				return 0, err
			}
			fc.emit(ir.Instr{Op: ir.OpPrintVal, B: r, Pos: a.Pos()})
		}
		fc.emit(ir.Instr{Op: ir.OpPrintNL, Pos: call.Pos()})
		return 0, nil
	case sema.BuiltinLen:
		r, err := fc.expr(call.Args[0])
		if err != nil {
			return 0, err
		}
		dst := fc.temp()
		fc.emit(ir.Instr{Op: ir.OpLen, A: dst, B: r, Pos: call.Pos()})
		return dst, nil
	case sema.BuiltinAlloc:
		r, err := fc.expr(call.Args[0])
		if err != nil {
			return 0, err
		}
		dst := fc.temp()
		fc.emit(ir.Instr{Op: ir.OpAlloc, A: dst, B: r, Pos: call.Pos()})
		return dst, nil
	default:
		args, err := fc.callArgs(call)
		if err != nil {
			return 0, err
		}
		dst := fc.temp()
		fc.emit(ir.Instr{Op: ir.OpCallB, A: dst, Builtin: b, Args: args, Pos: call.Pos()})
		return dst, nil
	}
}
