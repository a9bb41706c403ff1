// Command chronopriv runs one of the modeled programs through the ChronoPriv
// measurement alone: AutoPriv transforms the model, the interpreter executes
// its workload on the simulated kernel, and the per-phase dynamic instruction
// counts are printed — one program's slice of Table III/V without the ROSA
// verdicts.
//
// Usage:
//
//	chronopriv -program passwd
//	chronopriv -program sshd -trace     # also dump the syscall trace
//	chronopriv -program passwd -json    # the report as machine-readable JSON
//	chronopriv -program su -hot 10      # the 10 hottest basic blocks
//
// SIGINT/SIGTERM interrupt the run gracefully between pipeline stages: the
// measurements collected so far are still flushed before exit. A second
// signal kills the process immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"privanalyzer/internal/autopriv"
	"privanalyzer/internal/chronopriv"
	"privanalyzer/internal/cmdutil"
	"privanalyzer/internal/interp"
	"privanalyzer/internal/programs"
	"privanalyzer/internal/report"
	"privanalyzer/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("chronopriv", flag.ContinueOnError)
	var logf cmdutil.LogFlags
	logf.Register(fs)
	var (
		program  = fs.String("program", "", "program to measure ("+fmt.Sprint(programs.Names())+")")
		trace    = fs.Bool("trace", false, "print the kernel syscall trace")
		jsonOut  = fs.Bool("json", false, "print the report as JSON instead of the table")
		hotCount = fs.Int("hot", 0, "also print the N hottest basic blocks by instructions executed (0 = off)")
	)
	ver := cmdutil.VersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *ver {
		cmdutil.PrintVersion(os.Stdout, "chronopriv")
		return 0
	}
	if *program == "" {
		fs.Usage()
		return 2
	}
	logger, err := logf.Logger()
	if err != nil {
		fmt.Fprintln(os.Stderr, "chronopriv:", err)
		return 2
	}
	if logger == nil {
		logger = telemetry.Discard
	}
	p, err := programs.ByName(*program)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chronopriv:", err)
		return 1
	}
	ctx, stopSignals := cmdutil.SignalContext(context.Background())
	defer stopSignals()

	ares, err := autopriv.Analyze(p.Module, autopriv.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chronopriv:", err)
		return 1
	}
	logger.Debug("autopriv done",
		"component", "autopriv",
		"program", p.Name,
		"required_permitted", ares.RequiredPermitted.String(),
		"removals", len(ares.Removals))
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "chronopriv: interrupted before measurement")
		return 130
	}
	k := p.NewKernel(ares.RequiredPermitted)
	k.TraceEnabled = *trace
	rt := chronopriv.NewRuntime()
	res, err := interp.Run(ares.Module, k, interp.Options{
		MainArgs: p.MainArgs,
		OnSteps:  rt.OnSteps,
		Profile:  *hotCount > 0,
		Logger:   logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chronopriv:", err)
		return 1
	}

	if *jsonOut {
		if err := rt.Report(p.Name).WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "chronopriv:", err)
			return 1
		}
		return 0
	}

	fmt.Printf("workload: %s\n", p.Workload)
	fmt.Printf("initial permitted set (AutoPriv): %s\n", ares.RequiredPermitted)
	fmt.Printf("executed %d instructions (exited=%v)\n\n", res.Steps, res.Exited)
	fmt.Print(rt.Report(p.Name))

	if *hotCount > 0 {
		fmt.Printf("\n%s", report.HotBlocksTable(res.Profile, *hotCount))
	}

	if *trace {
		fmt.Println("\nsyscall trace:")
		for _, ev := range k.Trace {
			status := "ok"
			if ev.Err != "" {
				status = "EPERM: " + ev.Err
			}
			fmt.Printf("  %s(%s) = %d  %s\n", ev.Name, ev.Args, ev.Ret, status)
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "chronopriv: interrupted — report above reflects the completed workload")
		return 130
	}
	return 0
}
