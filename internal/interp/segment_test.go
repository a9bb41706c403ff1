package interp

import (
	"errors"
	"math"
	"testing"

	"privanalyzer/internal/caps"
	"privanalyzer/internal/ir"
)

// phaseTotals runs m with CapSetuid permitted and returns the result plus
// the OnSteps totals split by whether CapSetuid was still permitted.
func phaseTotals(t *testing.T, m *ir.Module) (res *Result, with, without int64) {
	t.Helper()
	opts := Options{OnSteps: func(n int64, ph caps.PhaseKey) {
		if ph.Permitted.Has(caps.CapSetuid) {
			with += n
		} else {
			without += n
		}
	}}
	res, _ = run(t, m, caps.NewSet(caps.CapSetuid), opts)
	if with+without != res.Steps {
		t.Errorf("OnSteps total %d != Steps %d", with+without, res.Steps)
	}
	return res, with, without
}

// blockCode compiles m and returns the run form and plain form of
// @fn:block.
func blockCode(t *testing.T, m *ir.Module, fn, block string) (code, plain []cinstr) {
	t.Helper()
	funcs, err := compileModule(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, cb := range funcs[fn].blocks {
		if cb.b.Name == block {
			return cb.code, cb.plain
		}
	}
	t.Fatalf("no block @%s:%s", fn, block)
	return nil, nil
}

// checkRun compares a run against hand-computed figures.
func checkRun(t *testing.T, res *Result, with, without, wantWith, wantWithout, wantRet int64) {
	t.Helper()
	if res.Steps != wantWith+wantWithout || res.Ret != wantRet {
		t.Errorf("Steps = %d, Ret = %d; want %d, %d", res.Steps, res.Ret, wantWith+wantWithout, wantRet)
	}
	if with != wantWith || without != wantWithout {
		t.Errorf("phase split = %d/%d, want %d/%d", with, without, wantWith, wantWithout)
	}
}

func TestSegmentExitMidBlock(t *testing.T) {
	setuid := caps.NewSet(caps.CapSetuid)
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		Compute(3).
		Remove(setuid).
		Compute(2).
		Syscall("exit", ir.I(0)).
		Compute(4). // never runs, never charged
		RetVal(ir.I(7))
	res, with, without := phaseTotals(t, b.MustBuild())
	if !res.Exited {
		t.Error("Exited = false")
	}
	// 3 compute + remove | 2 compute + exit.
	checkRun(t, res, with, without, 4, 3, 0)
}

func TestSegmentCalleeChangesPhase(t *testing.T) {
	// The caller's segment ends at the call, so the callee's priv_remove
	// flushes the caller's charged prefix under the old phase and the
	// caller's continuation is charged under the new one.
	setuid := caps.NewSet(caps.CapSetuid)
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		Compute(2).
		CallTo("r", "drop").
		Compute(3).
		Bin("y", ir.Add, ir.R("r"), ir.I(40)).
		RetVal(ir.R("y"))
	d := b.Func("drop")
	d.Block("entry").
		Compute(1).
		Remove(setuid).
		Const("v", 2).
		RetVal(ir.R("v"))
	res, with, without := phaseTotals(t, b.MustBuild())
	// main: 2 compute + call | drop: compute + remove || drop: const + ret |
	// main: 3 compute + add + ret.
	checkRun(t, res, with, without, 3+2, 2+5, 42)
}

func TestSegmentIndirectCallMidBlock(t *testing.T) {
	setuid := caps.NewSet(caps.CapSetuid)
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		Bin("fp", ir.Add, ir.F("drop"), ir.I(0)).
		Compute(2).
		CallInd(ir.R("fp")).
		Compute(3).
		Const("z", 9).
		RetVal(ir.R("z"))
	d := b.Func("drop")
	d.Block("entry").
		Remove(setuid).
		Ret()
	m := b.MustBuild()
	res, with, without := phaseTotals(t, m)
	// main: fp + 2 compute + callind | drop: remove || drop: ret | main: 3
	// compute + const + ret.
	checkRun(t, res, with, without, 4+1, 1+5, 9)
	code, _ := blockCode(t, m, "main", "entry")
	var charges []int64
	for _, in := range code {
		if in.charge != 0 {
			charges = append(charges, in.charge)
		}
	}
	if len(charges) != 2 || charges[0] != 4 || charges[1] != 5 {
		t.Errorf("main's segment charges = %v, want [4 5]", charges)
	}
}

func TestFusedConstChainWraps(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		Const("x", math.MaxInt64).
		Bin("x", ir.Add, ir.R("x"), ir.I(1)).
		Bin("x", ir.Add, ir.R("x"), ir.I(5)).
		RetVal(ir.R("x"))
	m := b.MustBuild()
	res, with, without := phaseTotals(t, m)
	checkRun(t, res, with, without, 4, 0, math.MinInt64+5)
	if code, plain := blockCode(t, m, "main", "entry"); len(code) != 2 || len(plain) != 4 {
		t.Errorf("code/plain lengths = %d/%d, want 2/4 (const chain fused)", len(code), len(plain))
	}
}

func TestFnPlusZeroChainDoesNotFuse(t *testing.T) {
	// "add fp, fp, 0" on a function reference keeps the reference; only a
	// chain headed by a Const is folded.
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		Bin("fp", ir.Add, ir.F("triple"), ir.I(0)).
		Bin("fp", ir.Add, ir.R("fp"), ir.I(0)).
		Bin("fp", ir.Add, ir.R("fp"), ir.I(0)).
		CallInd(ir.R("fp"), ir.I(5)).
		CallTo("r", "triple", ir.I(14)).
		RetVal(ir.R("r"))
	tr := b.Func("triple", "n")
	tr.Block("entry").
		Bin("m", ir.Mul, ir.R("n"), ir.I(3)).
		RetVal(ir.R("m"))
	m := b.MustBuild()
	res, with, without := phaseTotals(t, m)
	// 3 adds + callind + triple(2) + call + triple(2) + ret.
	checkRun(t, res, with, without, 10, 0, 42)
	if code, plain := blockCode(t, m, "main", "entry"); len(code) != len(plain) {
		t.Errorf("code/plain lengths = %d/%d, want no fusion", len(code), len(plain))
	}
}

func TestFusedCmpResultReadInTarget(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		Cmp("c", ir.Lt, ir.I(3), ir.I(5)).
		Br(ir.R("c"), "yes", "no")
	f.Block("yes").
		Bin("r", ir.Add, ir.R("c"), ir.I(41)).
		RetVal(ir.R("r"))
	f.Block("no").RetVal(ir.R("c"))
	m := b.MustBuild()
	res, with, without := phaseTotals(t, m)
	// cmp + br + add + ret.
	checkRun(t, res, with, without, 4, 0, 42)
	if code, _ := blockCode(t, m, "main", "entry"); len(code) != 1 || code[0].op != cCmpBr || code[0].charge != 2 {
		t.Errorf("entry = %+v, want one compare-and-branch charging 2", code)
	}
}

func TestSegmentSyscallThenUnreachable(t *testing.T) {
	setuid := caps.NewSet(caps.CapSetuid)

	// A noreturn exit followed by unreachable: the unreachable is its own
	// zero-size segment and never runs.
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		Compute(2).
		Syscall("exit", ir.I(0)).
		Unreachable()
	m := b.MustBuild()
	res, with, without := phaseTotals(t, m)
	checkRun(t, res, with, without, 3, 0, 0)
	if code, _ := blockCode(t, m, "main", "entry"); code[0].charge != 3 || code[len(code)-1].charge != 0 {
		t.Errorf("charges = %d … %d, want 3 … 0 (unreachable not counted)",
			code[0].charge, code[len(code)-1].charge)
	}

	// An executed unreachable fails the run; the batch flushed at the phase
	// change is all OnSteps sees.
	b = ir.NewModuleBuilder("m")
	f = b.Func("main")
	f.Block("entry").
		Compute(2).
		Remove(setuid).
		Unreachable()
	var reported []int64
	_, err := Run(b.MustBuild(), newKernel(setuid), Options{OnSteps: func(n int64, _ caps.PhaseKey) {
		reported = append(reported, n)
	}})
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
	if len(reported) != 1 || reported[0] != 3 {
		t.Errorf("OnSteps reports = %v, want [3]", reported)
	}
}
