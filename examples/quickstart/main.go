// Quickstart: analyse a small privileged program end-to-end.
//
// The program below mimics a log-rotation daemon: it needs CAP_CHOWN once at
// startup to hand its log file to an unprivileged user, then serves forever.
// We build its IR with privilege annotations, let AutoPriv insert the
// priv_remove, execute it under ChronoPriv to see how long each privilege
// set is live, and ask ROSA whether the write-/dev/mem attack is possible in
// each phase.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"privanalyzer/internal/attacks"
	"privanalyzer/internal/autopriv"
	"privanalyzer/internal/caps"
	"privanalyzer/internal/chronopriv"
	"privanalyzer/internal/interp"
	"privanalyzer/internal/ir"
	"privanalyzer/internal/rosa"
	"privanalyzer/internal/vkernel"
)

func main() {
	// 1. Build a privilege-annotated program: raise CAP_CHOWN around the
	// one call that needs it, then do unprivileged work.
	chown := caps.NewSet(caps.CapChown)
	b := ir.NewModuleBuilder("logrotated")
	f := b.Func("main")
	f.Block("entry").
		Raise(chown).
		Syscall("chown", ir.S("/var/log/app.log"), ir.I(1000), ir.I(1000)).
		Lower(chown).
		Jmp("serve")
	f.Block("serve").
		SyscallTo("fd", "open", ir.S("/var/log/app.log"), ir.I(vkernel.OpenWrite)).
		Syscall("write", ir.R("fd"), ir.I(4096)).
		Compute(500). // the daemon's steady-state work
		Ret()
	module := b.MustBuild()

	// 2. AutoPriv: find where CAP_CHOWN becomes dead and drop it there.
	analysis, err := autopriv.Analyze(module, autopriv.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AutoPriv: program needs initial permitted set %s\n", analysis.RequiredPermitted)
	for _, r := range analysis.Removals {
		fmt.Printf("AutoPriv: inserted priv_remove(%s) at @%s:%s[%d]\n", r.Caps, r.Func, r.Block, r.Index)
	}

	// 3. ChronoPriv: run the transformed program and measure how many
	// instructions execute under each permitted set.
	kernel := vkernel.New()
	kernel.AddFile(vkernel.File{
		Path: "/var/log", Owner: 0, Group: 0,
		Perms: vkernel.MustMode("rwxr-xr-x"), IsDir: true,
	})
	kernel.AddFile(vkernel.File{
		Path: "/var/log/app.log", Owner: 0, Group: 0,
		Perms: vkernel.MustMode("rw-rw-r--"),
	})
	kernel.Spawn("logrotated", caps.NewCreds(1000, 1000, analysis.RequiredPermitted))
	runtime := chronopriv.NewRuntime()
	if _, err := interp.Run(analysis.Module, kernel, interp.Options{OnSteps: runtime.OnSteps}); err != nil {
		log.Fatal(err)
	}
	report := runtime.Report("logrotated")
	fmt.Printf("\n%s\n", report)

	// 4. ROSA: for each phase, could an exploited process write /dev/mem?
	inventory := []string{"open", "chown"}
	for _, phase := range report.Phases {
		creds := rosa.Creds{
			RUID: phase.RUID, EUID: phase.EUID, SUID: phase.SUID,
			RGID: phase.RGID, EGID: phase.EGID, SGID: phase.SGID,
		}
		q := attacks.Build(attacks.WriteDevMem, inventory, creds, phase.Privileges)
		res, err := q.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("phase %-12s for %5.1f%% of execution: write /dev/mem %s (%d states)\n",
			phase.Privileges, phase.Percent, res.Verdict, res.StatesExplored)
	}
	fmt.Println("\nCAP_CHOWN lets an attacker take ownership of any file; the daemon")
	fmt.Println("is exposed only for the startup instructions before the priv_remove.")
}
