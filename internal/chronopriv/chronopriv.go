// Package chronopriv reimplements the ChronoPriv dynamic analysis from the
// paper (§V-A, §VI): it measures, for each combination of permitted
// privilege set and real/effective/saved user and group IDs (a "phase"), how
// many IR instructions a program executes dynamically, and reports the
// result as the rows of the paper's Tables III and V.
//
// The paper's LLVM pass adds each basic block's instruction count on block
// entry. The interpreter does the same (internal/interp, compile.go), with
// blocks split after every call and syscall so that a phase change inside a
// block is attributed exactly: credentials change only inside syscalls. A
// Runtime receives the resulting per-phase batches through
// interp.Options.OnSteps and builds the report.
package chronopriv

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"privanalyzer/internal/caps"
)

// Runtime accumulates per-phase instruction counts during a run. Create one
// per execution with NewRuntime, pass OnSteps as interp.Options.OnSteps,
// then call Report.
type Runtime struct {
	counts map[caps.PhaseKey]int64
	order  []caps.PhaseKey // first-appearance order
}

// NewRuntime returns an empty runtime.
func NewRuntime() *Runtime {
	return &Runtime{counts: make(map[caps.PhaseKey]int64)}
}

// OnSteps is the interp.Options.OnSteps observer: it attributes a batch of
// n instructions to the phase they executed under.
func (r *Runtime) OnSteps(n int64, ph caps.PhaseKey) {
	if _, ok := r.counts[ph]; !ok {
		r.order = append(r.order, ph)
	}
	r.counts[ph] += n
}

// Phase is one report row: a distinct (privileges, UIDs, GIDs) combination
// with its dynamic instruction count, as in the paper's Tables III and V.
type Phase struct {
	// Privileges is the permitted capability set of the phase.
	Privileges caps.Set
	// RUID, EUID, SUID are the user IDs.
	RUID, EUID, SUID int
	// RGID, EGID, SGID are the group IDs.
	RGID, EGID, SGID int
	// Instructions is the dynamic instruction count attributed to the phase.
	Instructions int64
	// Percent is Instructions as a share of the run's total, in percent.
	Percent float64
}

// Key returns the phase's identifying combination.
func (p Phase) Key() caps.PhaseKey {
	return caps.PhaseKey{
		Permitted: p.Privileges,
		RUID:      p.RUID, EUID: p.EUID, SUID: p.SUID,
		RGID: p.RGID, EGID: p.EGID, SGID: p.SGID,
	}
}

// UIDString renders "ruid,euid,suid" as in the paper's UID column.
func (p Phase) UIDString() string { return fmt.Sprintf("%d,%d,%d", p.RUID, p.EUID, p.SUID) }

// GIDString renders "rgid,egid,sgid" as in the paper's GID column.
func (p Phase) GIDString() string { return fmt.Sprintf("%d,%d,%d", p.RGID, p.EGID, p.SGID) }

// Report is the ChronoPriv output for one program execution.
type Report struct {
	// Program is the module name.
	Program string
	// Total is the total counted instructions of the run.
	Total int64
	// Phases lists the observed phases in order of first appearance
	// (chronological).
	Phases []Phase
}

// Report builds the report for the completed run.
func (r *Runtime) Report(program string) *Report {
	rep := &Report{Program: program}
	for _, ph := range r.order {
		rep.Total += r.counts[ph]
	}
	for _, ph := range r.order {
		n := r.counts[ph]
		pct := 0.0
		if rep.Total > 0 {
			pct = 100 * float64(n) / float64(rep.Total)
		}
		rep.Phases = append(rep.Phases, Phase{
			Privileges: ph.Permitted,
			RUID:       ph.RUID, EUID: ph.EUID, SUID: ph.SUID,
			RGID: ph.RGID, EGID: ph.EGID, SGID: ph.SGID,
			Instructions: n,
			Percent:      pct,
		})
	}
	return rep
}

// Find returns the phase with the given key, or nil.
func (rep *Report) Find(key caps.PhaseKey) *Phase {
	for i := range rep.Phases {
		if rep.Phases[i].Key() == key {
			return &rep.Phases[i]
		}
	}
	return nil
}

// phaseJSON is the wire form of one phase row (cmd/chronopriv -json).
type phaseJSON struct {
	Privileges   []string `json:"privileges"`
	UID          [3]int   `json:"uid"` // real, effective, saved
	GID          [3]int   `json:"gid"`
	Instructions int64    `json:"instructions"`
	Percent      float64  `json:"percent"`
}

// reportJSON is the wire form of a Report.
type reportJSON struct {
	Program string      `json:"program"`
	Total   int64       `json:"total_instructions"`
	Phases  []phaseJSON `json:"phases"`
}

// WriteJSON writes the report as indented JSON: program, run total, and the
// phase rows (privileges as sorted capability names, credential triples,
// dynamic instruction counts) in chronological order — the machine-readable
// Table III/V fragment behind cmd/chronopriv -json.
func (rep *Report) WriteJSON(w io.Writer) error {
	out := reportJSON{Program: rep.Program, Total: rep.Total, Phases: []phaseJSON{}}
	for _, p := range rep.Phases {
		out.Phases = append(out.Phases, phaseJSON{
			Privileges:   p.Privileges.SortedNames(),
			UID:          [3]int{p.RUID, p.EUID, p.SUID},
			GID:          [3]int{p.RGID, p.EGID, p.SGID},
			Instructions: p.Instructions,
			Percent:      p.Percent,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("chronopriv: %w", err)
	}
	return nil
}

// String renders the report as an ASCII table in the layout of the paper's
// Table III: privileges, UID triple, GID triple, dynamic instruction count
// and percentage.
func (rep *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ChronoPriv report for %s (total %d instructions)\n", rep.Program, rep.Total)
	fmt.Fprintf(&b, "%-60s %-18s %-18s %s\n", "Privileges", "UID (r,e,s)", "GID (r,e,s)", "Dynamic Instruction Count")
	for _, p := range rep.Phases {
		fmt.Fprintf(&b, "%-60s %-18s %-18s %d (%.2f%%)\n",
			p.Privileges, p.UIDString(), p.GIDString(), p.Instructions, p.Percent)
	}
	return b.String()
}
