package interp

import (
	"errors"
	"strings"
	"testing"

	"privanalyzer/internal/caps"
	"privanalyzer/internal/ir"
	"privanalyzer/internal/vkernel"
)

func newKernel(perm caps.Set) *vkernel.Kernel {
	k := vkernel.New()
	k.AddFile(vkernel.File{Path: "/etc", Owner: 0, Group: 0, Perms: vkernel.MustMode("rwxr-xr-x"), IsDir: true})
	k.AddFile(vkernel.File{Path: "/etc/shadow", Owner: 0, Group: 42, Perms: vkernel.MustMode("rw-r-----")})
	k.Spawn("prog", caps.NewCreds(1000, 1000, perm))
	return k
}

func run(t *testing.T, m *ir.Module, perm caps.Set, opts Options) (*Result, *vkernel.Kernel) {
	t.Helper()
	k := newKernel(perm)
	res, err := Run(m, k, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, k
}

func TestArithmeticAndReturn(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		Const("x", 6).
		Bin("y", ir.Mul, ir.R("x"), ir.I(7)).
		RetVal(ir.R("y"))
	res, _ := run(t, b.MustBuild(), 0, Options{})
	if res.Ret != 42 {
		t.Errorf("Ret = %d, want 42", res.Ret)
	}
	if res.Steps != 3 {
		t.Errorf("Steps = %d, want 3", res.Steps)
	}
}

func TestAllBinOps(t *testing.T) {
	tests := []struct {
		op   ir.BinKind
		x, y int64
		want int64
	}{
		{ir.Add, 5, 3, 8},
		{ir.Sub, 5, 3, 2},
		{ir.Mul, 5, 3, 15},
		{ir.Div, 7, 2, 3},
		{ir.Rem, 7, 2, 1},
		{ir.And, 6, 3, 2},
		{ir.Or, 6, 3, 7},
		{ir.Xor, 6, 3, 5},
		{ir.Shl, 1, 4, 16},
		{ir.Shr, 16, 3, 2},
	}
	for _, tt := range tests {
		b := ir.NewModuleBuilder("m")
		f := b.Func("main")
		f.Block("entry").
			Bin("r", tt.op, ir.I(tt.x), ir.I(tt.y)).
			RetVal(ir.R("r"))
		res, _ := run(t, b.MustBuild(), 0, Options{})
		if res.Ret != tt.want {
			t.Errorf("%s(%d,%d) = %d, want %d", tt.op, tt.x, tt.y, res.Ret, tt.want)
		}
	}
}

func TestCmpAndBranch(t *testing.T) {
	for _, tt := range []struct {
		pred ir.CmpKind
		x, y int64
		want int64
	}{
		{ir.Eq, 2, 2, 1}, {ir.Eq, 2, 3, 0},
		{ir.Ne, 2, 3, 1}, {ir.Lt, 2, 3, 1},
		{ir.Le, 3, 3, 1}, {ir.Gt, 4, 3, 1},
		{ir.Ge, 2, 3, 0},
	} {
		b := ir.NewModuleBuilder("m")
		f := b.Func("main")
		f.Block("entry").
			Cmp("c", tt.pred, ir.I(tt.x), ir.I(tt.y)).
			Br(ir.R("c"), "yes", "no")
		f.Block("yes").RetVal(ir.I(1))
		f.Block("no").RetVal(ir.I(0))
		res, _ := run(t, b.MustBuild(), 0, Options{})
		if res.Ret != tt.want {
			t.Errorf("cmp %s %d,%d branch = %d, want %d", tt.pred, tt.x, tt.y, res.Ret, tt.want)
		}
	}
}

func TestLoopExecutesExactTripCount(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").Const("i", 0).Const("acc", 0).Jmp("header")
	f.Block("header").
		Cmp("c", ir.Lt, ir.R("i"), ir.I(100)).
		Br(ir.R("c"), "body", "exit")
	f.Block("body").
		Bin("acc", ir.Add, ir.R("acc"), ir.R("i")).
		Bin("i", ir.Add, ir.R("i"), ir.I(1)).
		Jmp("header")
	f.Block("exit").RetVal(ir.R("acc"))
	res, _ := run(t, b.MustBuild(), 0, Options{})
	if res.Ret != 4950 {
		t.Errorf("sum = %d, want 4950", res.Ret)
	}
	// entry(3) + header(2)*101 + body(3)*100 + exit(1)
	want := int64(3 + 2*101 + 3*100 + 1)
	if res.Steps != want {
		t.Errorf("Steps = %d, want %d", res.Steps, want)
	}
}

func TestCallsAndParams(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		CallTo("r", "double", ir.I(21)).
		RetVal(ir.R("r"))
	d := b.Func("double", "n")
	d.Block("entry").
		Bin("m", ir.Mul, ir.R("n"), ir.I(2)).
		RetVal(ir.R("m"))
	res, _ := run(t, b.MustBuild(), 0, Options{})
	if res.Ret != 42 {
		t.Errorf("Ret = %d", res.Ret)
	}
}

func TestIndirectCall(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		Bin("fp", ir.Add, ir.F("triple"), ir.I(0)).
		CallInd(ir.R("fp"), ir.I(5)).
		CallTo("r", "triple", ir.I(14)).
		RetVal(ir.R("r"))
	tr := b.Func("triple", "n")
	tr.Block("entry").
		Bin("m", ir.Mul, ir.R("n"), ir.I(3)).
		RetVal(ir.R("m"))
	res, _ := run(t, b.MustBuild(), 0, Options{})
	if res.Ret != 42 {
		t.Errorf("Ret = %d", res.Ret)
	}
}

func TestRecursionWithBase(t *testing.T) {
	// fact(10) via recursion.
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").CallTo("r", "fact", ir.I(10)).RetVal(ir.R("r"))
	fa := b.Func("fact", "n")
	fa.Block("entry").
		Cmp("c", ir.Le, ir.R("n"), ir.I(1)).
		Br(ir.R("c"), "base", "rec")
	fa.Block("base").RetVal(ir.I(1))
	fa.Block("rec").
		Bin("n1", ir.Sub, ir.R("n"), ir.I(1)).
		CallTo("sub", "fact", ir.R("n1")).
		Bin("r", ir.Mul, ir.R("n"), ir.R("sub")).
		RetVal(ir.R("r"))
	res, _ := run(t, b.MustBuild(), 0, Options{})
	if res.Ret != 3628800 {
		t.Errorf("fact(10) = %d", res.Ret)
	}
}

func TestInfiniteRecursionAborts(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").Call("main").Ret()
	k := newKernel(0)
	_, err := Run(b.MustBuild(), k, Options{})
	if !errors.Is(err, ErrRuntime) {
		t.Errorf("err = %v, want ErrRuntime (depth)", err)
	}
}

func TestOutOfFuel(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").Jmp("loop")
	f.Block("loop").Const("x", 1).Jmp("loop")
	k := newKernel(0)
	_, err := Run(b.MustBuild(), k, Options{Fuel: 1000})
	if !errors.Is(err, ErrOutOfFuel) {
		t.Errorf("err = %v, want ErrOutOfFuel", err)
	}
	// entry's jmp, then 499 two-instruction trips; the 500th trip's segment
	// crosses the limit after its const.
	if err == nil || !strings.Contains(err.Error(), "after 1000 instructions") {
		t.Errorf("err = %v, want the count pinned at 1000", err)
	}
}

// TestOutOfFuelInsideSegment pins the exact fuel semantics when the limit
// falls partway through one segment: entry is a single 17-instruction
// segment (a fused Compute(3) chain, a division, a fused Compute(12) chain,
// ret). The run stops after exactly Fuel instructions, and a division by
// zero before the limit in the same segment is still the error returned.
func TestOutOfFuelInsideSegment(t *testing.T) {
	build := func(divisor int64) *ir.Module {
		b := ir.NewModuleBuilder("m")
		f := b.Func("main")
		f.Block("entry").
			Compute(3).
			Bin("q", ir.Div, ir.I(84), ir.I(divisor)).
			Compute(12).
			RetVal(ir.R("q"))
		return b.MustBuild()
	}
	for _, tt := range []struct {
		name    string
		divisor int64
		fuel    int64
		want    error
		wantMsg string
	}{
		{"inside first chain", 2, 2, ErrOutOfFuel, "after 2 instructions"},
		{"before the division", 2, 3, ErrOutOfFuel, "after 3 instructions"},
		{"inside second chain", 2, 9, ErrOutOfFuel, "after 9 instructions"},
		{"before the ret", 2, 16, ErrOutOfFuel, "after 16 instructions"},
		{"one instruction", 2, 1, ErrOutOfFuel, "after 1 instructions"},
		{"division by zero first", 0, 9, ErrRuntime, "division by zero"},
		{"division by zero at the limit", 0, 4, ErrRuntime, "division by zero"},
		{"out of fuel before the division", 0, 3, ErrOutOfFuel, "after 3 instructions"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Run(build(tt.divisor), newKernel(0), Options{Fuel: tt.fuel})
			if !errors.Is(err, tt.want) || !strings.Contains(err.Error(), tt.wantMsg) {
				t.Errorf("err = %v, want %v with %q", err, tt.want, tt.wantMsg)
			}
			if tt.want == ErrRuntime && errors.Is(err, ErrOutOfFuel) {
				t.Errorf("err = %v, want the division error, not out of fuel", err)
			}
		})
	}
	// Exactly enough fuel completes the run.
	res, err := Run(build(2), newKernel(0), Options{Fuel: 17})
	if err != nil || res.Steps != 17 || res.Ret != 42 {
		t.Errorf("Fuel 17: res = %+v, err = %v, want 17 steps returning 42", res, err)
	}
}

func TestUnreachableAborts(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").Unreachable()
	k := newKernel(0)
	_, err := Run(b.MustBuild(), k, Options{})
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
}

func TestDivisionByZero(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").Bin("r", ir.Div, ir.I(1), ir.I(0)).Ret()
	k := newKernel(0)
	_, err := Run(b.MustBuild(), k, Options{})
	if !errors.Is(err, ErrRuntime) {
		t.Errorf("err = %v, want ErrRuntime", err)
	}
}

func TestUndefinedRegister(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").Bin("r", ir.Add, ir.R("ghost"), ir.I(1)).Ret()
	k := newKernel(0)
	_, err := Run(b.MustBuild(), k, Options{})
	if !errors.Is(err, ErrRuntime) {
		t.Errorf("err = %v, want ErrRuntime", err)
	}
}

func TestSyscallRoundTrip(t *testing.T) {
	// Raise CapDacReadSearch, open /etc/shadow read-only, read 100 bytes.
	drs := caps.NewSet(caps.CapDacReadSearch)
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		Raise(drs).
		SyscallTo("fd", "open", ir.S("/etc/shadow"), ir.I(vkernel.OpenRead)).
		Lower(drs).
		SyscallTo("n", "read", ir.R("fd"), ir.I(100)).
		RetVal(ir.R("n"))
	res, _ := run(t, b.MustBuild(), drs, Options{})
	if res.Ret != 100 {
		t.Errorf("read returned %d, want 100", res.Ret)
	}
}

func TestSyscallPermissionFailureVisible(t *testing.T) {
	// Without privileges, open fails and the program sees -1.
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		SyscallTo("fd", "open", ir.S("/etc/shadow"), ir.I(vkernel.OpenRead)).
		RetVal(ir.R("fd"))
	res, _ := run(t, b.MustBuild(), 0, Options{})
	if res.Ret != -1 {
		t.Errorf("open returned %d, want -1", res.Ret)
	}
}

func TestExitSyscallStopsRun(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		Call("die").
		Const("never", 1). // must not execute
		RetVal(ir.R("never"))
	d := b.Func("die")
	d.Block("entry").Syscall("exit", ir.I(0)).Ret()
	res, _ := run(t, b.MustBuild(), 0, Options{})
	if !res.Exited {
		t.Error("Exited = false")
	}
	// entry: call(1) + die: exit(1) = 2 counted instructions.
	if res.Steps != 2 {
		t.Errorf("Steps = %d, want 2", res.Steps)
	}
}

func TestOnStepPhases(t *testing.T) {
	setuid := caps.NewSet(caps.CapSetuid)
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		Compute(3).
		Remove(setuid).
		Compute(2).
		Ret()
	var reports int
	var before, after int64
	opts := Options{OnSteps: func(n int64, ph caps.PhaseKey) {
		reports++
		if ph.Permitted.Has(caps.CapSetuid) {
			before += n
		} else {
			after += n
		}
	}}
	res, _ := run(t, b.MustBuild(), setuid, opts)
	if res.Steps != before+after {
		t.Fatalf("Steps %d != OnSteps total %d", res.Steps, before+after)
	}
	// 3 compute + the remove itself run with the cap still permitted; the 2
	// compute after it plus ret run without. One report at the phase change,
	// one at run end.
	if before != 4 || after != 3 || reports != 2 {
		t.Errorf("phase split = %d/%d in %d reports, want 4/3 in 2", before, after, reports)
	}
}

func TestMainArgs(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main", "a", "b")
	f.Block("entry").Bin("r", ir.Add, ir.R("a"), ir.R("b")).RetVal(ir.R("r"))
	res, _ := run(t, b.MustBuild(), 0, Options{MainArgs: []int64{40, 2}})
	if res.Ret != 42 {
		t.Errorf("Ret = %d", res.Ret)
	}
	// Missing args default to zero.
	res2, _ := run(t, b.MustBuild(), 0, Options{})
	if res2.Ret != 0 {
		t.Errorf("Ret = %d, want 0", res2.Ret)
	}
}

func TestDeterministicSteps(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").Compute(50).Ret()
	m := b.MustBuild()
	r1, _ := run(t, m, 0, Options{})
	r2, _ := run(t, m, 0, Options{})
	if r1.Steps != r2.Steps {
		t.Errorf("nondeterministic step counts: %d vs %d", r1.Steps, r2.Steps)
	}
}
