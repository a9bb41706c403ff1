package chronopriv

import (
	"math"
	"strings"
	"testing"

	"privanalyzer/internal/caps"
	"privanalyzer/internal/interp"
	"privanalyzer/internal/ir"
	"privanalyzer/internal/vkernel"
)

func newKernel(perm caps.Set) *vkernel.Kernel {
	k := vkernel.New()
	k.Spawn("prog", caps.NewCreds(1000, 1000, perm))
	return k
}

// phasedModule runs 10 instructions with CapSetuid permitted, drops it at a
// block boundary, then runs 30 instructions without it.
func phasedModule(t *testing.T) *ir.Module {
	t.Helper()
	setuid := caps.NewSet(caps.CapSetuid)
	b := ir.NewModuleBuilder("phased")
	f := b.Func("main")
	f.Block("entry").
		Compute(9). // 9 + jmp = 10 counted in phase 1... jmp executes before remove
		Jmp("drop")
	f.Block("drop").
		Remove(setuid).
		Jmp("rest")
	f.Block("rest").
		Compute(28). // 28 + jmp... careful, tallied in test below
		Jmp("end")
	f.Block("end").Ret()
	return b.MustBuild()
}

func TestOnStepPerPhaseCounts(t *testing.T) {
	m := phasedModule(t)
	setuid := caps.NewSet(caps.CapSetuid)
	k := newKernel(setuid)
	rt := NewRuntime()
	res, err := interp.Run(m, k, interp.Options{OnSteps: rt.OnSteps})
	if err != nil {
		t.Fatal(err)
	}
	rep := rt.Report("phased")
	if rep.Total != res.Steps {
		t.Fatalf("report total %d != interpreter steps %d", rep.Total, res.Steps)
	}
	if len(rep.Phases) != 2 {
		t.Fatalf("phases = %d, want 2\n%s", len(rep.Phases), rep)
	}
	// Phase 1: entry (9 compute + jmp) + drop's remove itself = 11.
	// Phase 2: drop's jmp + rest (28 + jmp) + end ret = 31. The jmp after
	// the remove starts a new segment, so it is not charged at drop's entry.
	if got := rep.Phases[0].Instructions; got != 11 {
		t.Errorf("phase 1 = %d, want 11\n%s", got, rep)
	}
	if got := rep.Phases[1].Instructions; got != 31 {
		t.Errorf("phase 2 = %d, want 31\n%s", got, rep)
	}
	if !rep.Phases[0].Privileges.Has(caps.CapSetuid) || rep.Phases[1].Privileges.Has(caps.CapSetuid) {
		t.Errorf("phase privilege sets wrong:\n%s", rep)
	}
	wantPct := 100 * 11.0 / 42.0
	if math.Abs(rep.Phases[0].Percent-wantPct) > 1e-9 {
		t.Errorf("phase 1 percent = %f, want %f", rep.Phases[0].Percent, wantPct)
	}
}

func TestPhaseSplitsOnCredentialChange(t *testing.T) {
	// A setuid(0) with CapSetuid raised starts a new phase even though the
	// permitted set is unchanged.
	setuid := caps.NewSet(caps.CapSetuid)
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		Compute(5).
		Raise(setuid).
		Syscall("setuid", ir.I(0)).
		Compute(5).
		Ret()
	k := newKernel(setuid)
	rt := NewRuntime()
	if _, err := interp.Run(b.MustBuild(), k, interp.Options{OnSteps: rt.OnSteps}); err != nil {
		t.Fatal(err)
	}
	rep := rt.Report("m")
	if len(rep.Phases) != 2 {
		t.Fatalf("phases = %d, want 2\n%s", len(rep.Phases), rep)
	}
	if rep.Phases[0].EUID != 1000 || rep.Phases[1].EUID != 0 {
		t.Errorf("euid transition wrong:\n%s", rep)
	}
	if rep.Phases[0].Privileges != rep.Phases[1].Privileges {
		t.Errorf("permitted set should be unchanged:\n%s", rep)
	}
}

func TestReportFindAndString(t *testing.T) {
	setuid := caps.NewSet(caps.CapSetuid)
	m := phasedModule(t)
	k := newKernel(setuid)
	rt := NewRuntime()
	if _, err := interp.Run(m, k, interp.Options{OnSteps: rt.OnSteps}); err != nil {
		t.Fatal(err)
	}
	rep := rt.Report("phased")

	key := caps.PhaseKey{Permitted: setuid, RUID: 1000, EUID: 1000, SUID: 1000, RGID: 1000, EGID: 1000, SGID: 1000}
	if ph := rep.Find(key); ph == nil || ph.Instructions != 11 {
		t.Errorf("Find(%v) = %+v", key, ph)
	}
	if rep.Find(caps.PhaseKey{RUID: 42}) != nil {
		t.Error("Find on absent key should return nil")
	}

	s := rep.String()
	for _, want := range []string{"phased", "CapSetuid", "(empty)", "1000,1000,1000"} {
		if !strings.Contains(s, want) {
			t.Errorf("report rendering missing %q:\n%s", want, s)
		}
	}
}

func TestRevisitedPhaseMerges(t *testing.T) {
	// Dropping to uid 0 and returning to the same creds merges counts into
	// the original phase (same PhaseKey), as the paper's tables do.
	setuid := caps.NewSet(caps.CapSetuid)
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		Compute(5).
		Raise(setuid).
		Syscall("seteuid", ir.I(0)). // phase 2 (euid 0)
		Compute(3).
		Syscall("seteuid", ir.I(1000)). // back to phase 1 creds
		Compute(7).
		Ret()
	k := newKernel(setuid)
	rt := NewRuntime()
	if _, err := interp.Run(b.MustBuild(), k, interp.Options{OnSteps: rt.OnSteps}); err != nil {
		t.Fatal(err)
	}
	rep := rt.Report("m")
	if len(rep.Phases) != 2 {
		t.Fatalf("phases = %d, want 2 (revisit merges)\n%s", len(rep.Phases), rep)
	}
}
