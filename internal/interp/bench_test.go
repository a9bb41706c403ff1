package interp

import (
	"testing"

	"privanalyzer/internal/caps"
	"privanalyzer/internal/ir"
	"privanalyzer/internal/vkernel"
)

// buildLoop constructs a tight arithmetic loop executing ~12M instructions.
func buildLoop() *ir.Module {
	b := ir.NewModuleBuilder("bench")
	f := b.Func("main")
	f.Block("entry").Const("i", 0).Jmp("header")
	f.Block("header").
		Cmp("c", ir.Lt, ir.R("i"), ir.I(1_000_000)).
		Br(ir.R("c"), "body", "exit")
	f.Block("body").
		Compute(10).
		Bin("i", ir.Add, ir.R("i"), ir.I(1)).
		Jmp("header")
	f.Block("exit").Ret()
	return b.MustBuild()
}

// BenchmarkInterpreter measures raw execution throughput (bytes = counted
// instructions), the budget behind the sshd workload's ~63M instructions.
func BenchmarkInterpreter(b *testing.B) {
	m := buildLoop()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := vkernel.New()
		k.Spawn("bench", caps.NewCreds(0, 0, 0))
		res, err := Run(m, k, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(res.Steps)
	}
}

// BenchmarkInterpreterOnSteps measures the ChronoPriv counting path: the
// same loop with a batched OnSteps observer attached.
func BenchmarkInterpreterOnSteps(b *testing.B) {
	m := buildLoop()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := vkernel.New()
		k.Spawn("bench", caps.NewCreds(0, 0, 0))
		var n int64
		res, err := Run(m, k, Options{
			OnSteps: func(steps int64, _ caps.PhaseKey) { n += steps },
		})
		if err != nil {
			b.Fatal(err)
		}
		if n != res.Steps {
			b.Fatal("OnSteps total mismatch")
		}
		b.SetBytes(res.Steps)
	}
}
