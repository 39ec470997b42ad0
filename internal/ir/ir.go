// Package ir defines the register-based bytecode that mini-C compiles to
// and the Alchemist VM executes.
//
// Each function owns a flat instruction slice; branch targets are
// instruction indices within the function. Every instruction also has a
// process-wide "global PC" (function Base + index) so the profiler can key
// constructs and dependence edges by a single integer.
//
// Array values are packed references: the low bits hold the base word
// address in the VM's flat memory, the high bits the element count. Scalar
// locals live in frame registers and produce no memory traffic, mirroring
// register-allocated C locals under a binary instrumenter.
package ir

import (
	"fmt"
	"strings"

	"alchemist/internal/sema"
	"alchemist/internal/source"
)

// Op is a bytecode opcode.
type Op uint8

// Opcodes.
const (
	OpInvalid Op = iota

	OpConst // R[A] = Imm
	OpMov   // R[A] = R[B]

	// Binary arithmetic: R[A] = R[B] op R[C].
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	// Comparisons: R[A] = R[B] op R[C] ? 1 : 0.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// Unary: R[A] = op R[B].
	OpNeg  // arithmetic negation
	OpBNot // bitwise complement
	OpLNot // logical not

	// Memory. Global scalars use absolute addresses; array elements are
	// addressed relative to a packed array reference.
	OpLoadG   // R[A] = mem[Imm]
	OpStoreG  // mem[Imm] = R[B]
	OpLoadEl  // R[A] = mem[base(R[B]) + R[C]]
	OpStoreEl // mem[base(R[A]) + R[B]] = R[C]
	OpAlloc   // R[A] = ref(bump-alloc(R[B] words), R[B])
	OpLen     // R[A] = length(R[B])

	// Calls.
	OpCall  // R[A] = Callee(R[Args...]); A == -1 discards the result
	OpCallB // R[A] = Builtin(R[Args...])
	OpSpawn // future: Callee(R[Args...]) asynchronously
	OpSync  // join all outstanding spawns of this activation

	// Output.
	OpPrintStr // print Strings[Imm]
	OpPrintVal // print R[B] as a number
	OpPrintNL  // newline + flush line

	// Control flow.
	OpJmp // goto Targets[0]
	OpBr  // if R[A] != 0 goto Targets[0] else Targets[1]
	OpRet // return R[A] (A == -1 for void)
)

var opNames = [...]string{
	OpInvalid: "invalid", OpConst: "const", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpNeg: "neg", OpBNot: "bnot", OpLNot: "lnot",
	OpLoadG: "loadg", OpStoreG: "storeg", OpLoadEl: "loadel", OpStoreEl: "storeel",
	OpAlloc: "alloc", OpLen: "len",
	OpCall: "call", OpCallB: "callb", OpSpawn: "spawn", OpSync: "sync",
	OpPrintStr: "prints", OpPrintVal: "printv", OpPrintNL: "printnl",
	OpJmp: "jmp", OpBr: "br", OpRet: "ret",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsBinary reports whether o is a two-operand arithmetic/comparison op.
func (o Op) IsBinary() bool { return o >= OpAdd && o <= OpGe }

// NoPopPC marks a branch whose construct closes only at function exit
// (its immediate post-dominator is the virtual exit block).
const NoPopPC = -1

// Instr is a single bytecode instruction.
type Instr struct {
	Op Op
	// Pops marks an instruction that some predicate's PopPC names: the
	// only instructions where rule 5 can close a construct.
	Pops    bool
	A, B, C int   // register operands (A is usually the destination)
	Imm     int64 // immediate (constants, global addresses, string index)

	Callee  *Func        // resolved callee for OpCall/OpSpawn
	Builtin sema.Builtin // for OpCallB
	Args    []int        // argument registers for calls/spawns

	Targets [2]int // branch targets (instruction indices in this function)

	Pos source.Pos // source location, drives construct line reporting

	// Profiling metadata, filled in by the compiler + post-dominance pass.

	// IsLoopPred marks the conditional branch of a loop header. Each taken
	// execution starts a new iteration instance of the loop construct
	// (paper Fig. 5 rule 4).
	IsLoopPred bool
	// PopPC is the global PC of this predicate's immediate post-dominator,
	// where the construct it opens is closed (rule 5); NoPopPC if the
	// construct closes only at function exit.
	PopPC int
}

// Func is a compiled function.
type Func struct {
	Name    string
	NParams int
	// NumRegs is the frame size: parameter and local slots followed by
	// expression temporaries.
	NumRegs int
	Code    []Instr
	// Base is the global PC of Code[0].
	Base int
	Pos  source.Pos
	// IsSpawnable records that some spawn site targets this function.
	IsSpawnable bool
}

// GPC returns the global PC of instruction idx.
func (f *Func) GPC(idx int) int { return f.Base + idx }

// Program is a compiled translation unit plus its static memory layout.
type Program struct {
	File  *source.File
	Funcs []*Func
	Main  *Func
	// Strings is the program-wide string pool for print.
	Strings []string

	// GlobalWords is the number of flat-memory words occupied by globals
	// (address 0 is reserved as "null"); the VM's bump allocator starts
	// right after.
	GlobalWords int64
	// GlobalAddr maps a global scalar's declaration order index to its
	// word address.
	GlobalAddr []int64
	// GlobalArray maps a global's declaration order index to a packed
	// array reference (zero for scalars).
	GlobalArray []ArrayRef
	// GlobalInit holds constant initial values for global scalars,
	// parallel to GlobalAddr.
	GlobalInit []int64
	// GlobalNames records names in declaration order, for tooling.
	GlobalNames []string

	// NumPCs is the total global-PC count across all functions.
	NumPCs int

	// funcByPC is built lazily for PC -> function lookups.
	funcStarts []int
}

// Finalize assigns global PCs and must be called once after all functions
// are appended.
func (p *Program) Finalize() {
	base := 0
	p.funcStarts = p.funcStarts[:0]
	for _, f := range p.Funcs {
		f.Base = base
		p.funcStarts = append(p.funcStarts, base)
		base += len(f.Code)
	}
	p.NumPCs = base
}

// FuncAt returns the function containing global PC gpc, or nil.
func (p *Program) FuncAt(gpc int) *Func {
	if gpc < 0 || gpc >= p.NumPCs {
		return nil
	}
	lo, hi := 0, len(p.Funcs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.funcStarts[mid] <= gpc {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return p.Funcs[lo]
}

// InstrAt returns the instruction at global PC gpc, or nil.
func (p *Program) InstrAt(gpc int) *Instr {
	f := p.FuncAt(gpc)
	if f == nil {
		return nil
	}
	return &f.Code[gpc-f.Base]
}

// PosOf returns the source position of global PC gpc.
func (p *Program) PosOf(gpc int) source.Pos {
	if in := p.InstrAt(gpc); in != nil {
		return in.Pos
	}
	return source.Pos{}
}

// FindFunc returns the function named name, or nil.
func (p *Program) FindFunc(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// ---------- Packed array references ----------

// Array references pack a base word address and an element count into one
// int64 register value: base in the low 38 bits, length in the next 25.
const (
	arrayBaseBits = 38
	// MaxArrayLen is the largest representable array length.
	MaxArrayLen = 1<<25 - 1
	// MaxMemWords is the largest addressable flat memory size.
	MaxMemWords = 1<<arrayBaseBits - 1
)

// ArrayRef is a packed (base address, length) pair.
type ArrayRef int64

// MakeArrayRef packs base and length. It panics if either is out of range;
// the VM validates sizes before calling it.
func MakeArrayRef(base, length int64) ArrayRef {
	if base < 0 || base > MaxMemWords {
		panic(fmt.Sprintf("ir: array base %d out of range", base))
	}
	if length < 0 || length > MaxArrayLen {
		panic(fmt.Sprintf("ir: array length %d out of range", length))
	}
	return ArrayRef(base | length<<arrayBaseBits)
}

// Base returns the first word address of the array.
func (r ArrayRef) Base() int64 { return int64(r) & MaxMemWords }

// Len returns the element count.
func (r ArrayRef) Len() int64 { return int64(r) >> arrayBaseBits }

// ---------- Disassembler ----------

// Disassemble renders f's code for debugging and golden tests.
func Disassemble(f *Func) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s (params=%d regs=%d base=%d)\n", f.Name, f.NParams, f.NumRegs, f.Base)
	for i := range f.Code {
		in := &f.Code[i]
		fmt.Fprintf(&b, "  %4d  %s\n", i, FormatInstr(in))
	}
	return b.String()
}

// FormatInstr renders one instruction.
func FormatInstr(in *Instr) string {
	switch in.Op {
	case OpConst:
		return fmt.Sprintf("r%d = const %d", in.A, in.Imm)
	case OpMov:
		return fmt.Sprintf("r%d = r%d", in.A, in.B)
	case OpNeg, OpBNot, OpLNot:
		return fmt.Sprintf("r%d = %s r%d", in.A, in.Op, in.B)
	case OpLoadG:
		return fmt.Sprintf("r%d = mem[%d]", in.A, in.Imm)
	case OpStoreG:
		return fmt.Sprintf("mem[%d] = r%d", in.Imm, in.B)
	case OpLoadEl:
		return fmt.Sprintf("r%d = r%d[r%d]", in.A, in.B, in.C)
	case OpStoreEl:
		return fmt.Sprintf("r%d[r%d] = r%d", in.A, in.B, in.C)
	case OpAlloc:
		return fmt.Sprintf("r%d = alloc r%d", in.A, in.B)
	case OpLen:
		return fmt.Sprintf("r%d = len r%d", in.A, in.B)
	case OpCall:
		return fmt.Sprintf("r%d = call %s %v", in.A, in.Callee.Name, in.Args)
	case OpCallB:
		return fmt.Sprintf("r%d = callb #%d %v", in.A, in.Builtin, in.Args)
	case OpSpawn:
		return fmt.Sprintf("spawn %s %v", in.Callee.Name, in.Args)
	case OpSync:
		return "sync"
	case OpPrintStr:
		return fmt.Sprintf("prints #%d", in.Imm)
	case OpPrintVal:
		return fmt.Sprintf("printv r%d", in.B)
	case OpPrintNL:
		return "printnl"
	case OpJmp:
		return fmt.Sprintf("jmp %d", in.Targets[0])
	case OpBr:
		loop := ""
		if in.IsLoopPred {
			loop = " loop"
		}
		return fmt.Sprintf("br r%d -> %d, %d%s (pop@%d)", in.A, in.Targets[0], in.Targets[1], loop, in.PopPC)
	case OpRet:
		if in.A < 0 {
			return "ret"
		}
		return fmt.Sprintf("ret r%d", in.A)
	default:
		if in.Op.IsBinary() {
			return fmt.Sprintf("r%d = %s r%d, r%d", in.A, in.Op, in.B, in.C)
		}
		return in.Op.String()
	}
}
