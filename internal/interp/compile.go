package interp

import (
	"fmt"

	"privanalyzer/internal/ir"
)

// The interpreter pre-compiles each function before execution: virtual
// registers get dense integer slots, branch targets become block indices,
// and operands are resolved once.
//
// Counting follows the paper's ChronoPriv pass (§VI), which adds a basic
// block's instruction count once, on block entry. Credentials change only
// inside syscalls, so each block is split into segments that end after every
// call, indirect call and syscall (the only instructions that can reach the
// kernel), and a segment's counted size (unreachable excluded) is stored on
// its first compiled instruction. The interpreter charges that size once per
// segment; no per-instruction counting remains. Every instruction of a
// segment therefore runs under the phase in effect when the segment starts.
//
// Because nothing is counted per dispatch, the compiler also fuses the two
// hot shapes programs.work emits: a Const followed by its chain of
// "add r, r, imm" folds into one Const of the final value, and a Cmp whose
// result the next Br tests becomes one compare-and-branch (still writing the
// compare's register). Each block keeps its unfused form for the one segment
// of a run that crosses the fuel limit, which runs instruction by instruction.

// copKind is the opcode of a compiled instruction.
type copKind uint8

const (
	cConst copKind = iota + 1
	cBin
	cCmp
	cCall
	cCallInd
	cSyscall
	cBr
	cJmp
	cRet
	cUnreachable
	cCmpBr // fused Cmp + Br on its result
)

// cval is a pre-resolved operand: a register slot or an immediate rval.
type cval struct {
	reg int  // register slot when >= 0
	val rval // immediate when reg < 0
}

// cinstr is one compiled instruction.
type cinstr struct {
	op    copKind
	dst   int // destination slot, -1 for none
	bin   ir.BinKind
	pred  ir.CmpKind
	x, y  cval
	args  []cval
	fn    string // direct-call callee or syscall name
	t1    int    // branch target block index (then / jmp target)
	t2    int    // else target
	hasRV bool   // ret carries a value (in x)
	// charge is the counted size of the segment this instruction starts;
	// 0 everywhere else.
	charge int64
	// at is the index in the block's plain form of the first source
	// instruction this one executes.
	at int
}

// cblock is a compiled basic block.
type cblock struct {
	b *ir.Block
	// code is the fused form the interpreter runs; segment heads carry
	// their charges.
	code []cinstr
	// plain has one instruction per source instruction and no charges: the
	// form the fuel-crossing segment runs in.
	plain []cinstr
}

// cfunc is a compiled function.
type cfunc struct {
	fn     *ir.Function
	nregs  int
	params []int
	blocks []cblock
}

// compileModule compiles every function of a verified module.
func compileModule(m *ir.Module) (map[string]*cfunc, error) {
	out := make(map[string]*cfunc, len(m.Funcs))
	for _, fn := range m.Funcs {
		cf, err := compileFunc(fn)
		if err != nil {
			return nil, err
		}
		out[fn.Name] = cf
	}
	return out, nil
}

func compileFunc(fn *ir.Function) (*cfunc, error) {
	cf := &cfunc{fn: fn}
	slots := make(map[string]int)
	slot := func(name string) int {
		if s, ok := slots[name]; ok {
			return s
		}
		s := len(slots)
		slots[name] = s
		return s
	}
	blockIdx := make(map[string]int, len(fn.Blocks))
	for i, b := range fn.Blocks {
		blockIdx[b.Name] = i
	}
	for _, p := range fn.Params {
		cf.params = append(cf.params, slot(p))
	}

	cvalOf := func(v ir.Value) (cval, error) {
		switch v.Kind {
		case ir.Reg:
			return cval{reg: slot(v.Reg)}, nil
		case ir.Imm:
			return cval{reg: -1, val: intVal(v.Imm)}, nil
		case ir.FuncRef:
			return cval{reg: -1, val: fnVal(v.Fn)}, nil
		case ir.Str:
			return cval{reg: -1, val: strVal(v.Str)}, nil
		default:
			return cval{}, fmt.Errorf("%w: zero operand in @%s", ErrRuntime, fn.Name)
		}
	}
	cvals := func(vs []ir.Value) ([]cval, error) {
		out := make([]cval, len(vs))
		for i, v := range vs {
			cv, err := cvalOf(v)
			if err != nil {
				return nil, err
			}
			out[i] = cv
		}
		return out, nil
	}
	dstOf := func(name string) int {
		if name == "" {
			return -1
		}
		return slot(name)
	}

	for _, b := range fn.Blocks {
		cb := cblock{b: b, plain: make([]cinstr, 0, len(b.Instrs))}
		for i, in := range b.Instrs {
			ci := cinstr{dst: -1, t1: -1, t2: -1, at: i}
			var err error
			switch in := in.(type) {
			case *ir.ConstInstr:
				ci.op = cConst
				ci.dst = dstOf(in.Dst)
				ci.x = cval{reg: -1, val: intVal(in.Val)}
			case *ir.BinInstr:
				ci.op = cBin
				ci.dst = dstOf(in.Dst)
				ci.bin = in.Op
				if ci.x, err = cvalOf(in.X); err != nil {
					return nil, err
				}
				if ci.y, err = cvalOf(in.Y); err != nil {
					return nil, err
				}
			case *ir.CmpInstr:
				ci.op = cCmp
				ci.dst = dstOf(in.Dst)
				ci.pred = in.Pred
				if ci.x, err = cvalOf(in.X); err != nil {
					return nil, err
				}
				if ci.y, err = cvalOf(in.Y); err != nil {
					return nil, err
				}
			case *ir.CallInstr:
				ci.op = cCall
				ci.dst = dstOf(in.Dst)
				ci.fn = in.Callee
				if ci.args, err = cvals(in.Args); err != nil {
					return nil, err
				}
			case *ir.CallIndInstr:
				ci.op = cCallInd
				ci.dst = dstOf(in.Dst)
				if ci.x, err = cvalOf(in.Fp); err != nil {
					return nil, err
				}
				if ci.args, err = cvals(in.Args); err != nil {
					return nil, err
				}
			case *ir.SyscallInstr:
				ci.op = cSyscall
				ci.dst = dstOf(in.Dst)
				ci.fn = in.Name
				if ci.args, err = cvals(in.Args); err != nil {
					return nil, err
				}
			case *ir.BrInstr:
				ci.op = cBr
				if ci.x, err = cvalOf(in.Cond); err != nil {
					return nil, err
				}
				ci.t1 = blockIdx[in.Then]
				ci.t2 = blockIdx[in.Else]
			case *ir.JmpInstr:
				ci.op = cJmp
				ci.t1 = blockIdx[in.Target]
			case *ir.RetInstr:
				ci.op = cRet
				if !in.Val.IsZero() {
					ci.hasRV = true
					if ci.x, err = cvalOf(in.Val); err != nil {
						return nil, err
					}
				}
			case *ir.UnreachableInstr:
				ci.op = cUnreachable
			default:
				return nil, fmt.Errorf("%w: unknown instruction %T", ErrRuntime, in)
			}
			cb.plain = append(cb.plain, ci)
		}
		cb.code = fuse(cb.plain, segmentCharges(cb.plain))
		cf.blocks = append(cf.blocks, cb)
	}
	cf.nregs = len(slots)
	return cf, nil
}

// segmentCharges returns, indexed like plain, the counted size of the
// segment each instruction starts (0 for instructions inside a segment).
// A segment ends after every call, indirect call and syscall; unreachable is
// not counted (the paper §VI omits it).
func segmentCharges(plain []cinstr) []int64 {
	charges := make([]int64, len(plain))
	head := 0
	for i, in := range plain {
		if in.op != cUnreachable {
			charges[head]++
		}
		switch in.op {
		case cCall, cCallInd, cSyscall:
			head = i + 1
		}
	}
	return charges
}

// fuse builds a block's run form from its plain form. No fused group spans
// a segment boundary (Const, Bin and Cmp never end one), so every segment
// head starts a group and carries its charge over.
func fuse(plain []cinstr, charges []int64) []cinstr {
	code := make([]cinstr, 0, len(plain))
	for i := 0; i < len(plain); {
		ci := plain[i]
		ci.charge = charges[i]
		next := i + 1
		switch {
		case ci.op == cConst && ci.dst >= 0:
			// Const r,k; add r,r,a; add r,r,b; … → Const r,k+a+b+…
			// (int64 addition wraps, as it does at run time).
			for ; next < len(plain) && addsImmTo(&plain[next], ci.dst); next++ {
				ci.x.val.i += plain[next].y.val.i
			}
		case ci.op == cCmp && ci.dst >= 0 && next < len(plain) &&
			plain[next].op == cBr && plain[next].x.reg == ci.dst:
			ci.op = cCmpBr
			ci.t1, ci.t2 = plain[next].t1, plain[next].t2
			next++
		}
		code = append(code, ci)
		i = next
	}
	return code
}

// addsImmTo reports whether in is "add r, r, imm" for register slot r.
func addsImmTo(in *cinstr, r int) bool {
	return in.op == cBin && in.bin == ir.Add && in.dst == r &&
		in.x.reg == r && in.y.reg < 0 && in.y.val.kind == rInt
}
