package main

import (
	"context"
	"fmt"
	"strings"

	"privanalyzer/internal/api"
	"privanalyzer/internal/attacks"
	"privanalyzer/internal/caps"
	"privanalyzer/internal/core"
	"privanalyzer/internal/programs"
	"privanalyzer/internal/rosa"
)

// The reference is what set-up computes once and every op is checked
// against. Results are compared in their wire form (internal/api), the one
// shape the CLI, the server and the direct calls all convert to, reduced to
// the fields that must never change: per-phase instruction counts, and per
// query the verdict, the state count and any isolated fault.

// progRef is one program's reference.
type progRef struct {
	prog  *programs.Program
	total int64    // dynamic instructions of the whole run
	lines []string // analysisDigest of the reference analysis
	cells []*cell  // the program's (phase, attack) queries, phase-major
}

// cell is one (program, phase, attack) query of Figures 5–11.
type cell struct {
	prog   *programs.Program
	phase  string
	attack attacks.ID
	creds  rosa.Creds
	privs  caps.Set
	want   string // cellDigest of the reference verdict
}

// buildReference analyses every program once with zero core.Options,
// rejects any deviation from the paper's Tables III and V, and records the
// digests later ops must reproduce.
func buildReference(ctx context.Context, progs []*programs.Program) ([]*progRef, error) {
	refs := make([]*progRef, 0, len(progs))
	for _, p := range progs {
		a, err := core.AnalyzeContext(ctx, p, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", p.Name, err)
		}
		if mm := a.Mismatches(); len(mm) > 0 {
			return nil, fmt.Errorf("reference %s deviates from the paper: %s", p.Name, strings.Join(mm, "; "))
		}
		if len(a.Errors) > 0 {
			return nil, fmt.Errorf("reference %s: %d query faults, first: %v", p.Name, len(a.Errors), a.Errors[0])
		}
		resp := api.FromAnalysis(a, false)
		r := &progRef{prog: p, total: resp.TotalInstructions, lines: analysisDigest(resp)}
		for i, ph := range resp.Phases {
			spec := p.Phases[i]
			for _, q := range ph.Queries {
				r.cells = append(r.cells, &cell{
					prog:   p,
					phase:  spec.Name,
					attack: attacks.ID(q.Attack),
					creds: rosa.Creds{
						RUID: spec.UID[0], EUID: spec.UID[1], SUID: spec.UID[2],
						RGID: spec.GID[0], EGID: spec.GID[1], SGID: spec.GID[2],
					},
					privs: spec.Privs,
					want:  cellDigest(q),
				})
			}
		}
		refs = append(refs, r)
	}
	return refs, nil
}

// build constructs the cell's query from the program's syscall inventory
// and the phase's credentials and privileges, as core.AnalyzeContext and
// the server's /v1/query both do. They differ only in the state budget's
// cap, which no grid query reaches: every one resolves on the first rung of
// the escalation ladder.
func (c *cell) build(inventory []string) *rosa.Query {
	return attacks.Build(c.attack, inventory, c.creds, c.privs)
}

// cellDigest renders the reference-relevant fields of one query result.
func cellDigest(q api.QueryResult) string {
	s := fmt.Sprintf("attack %d %s %d states", q.Attack, q.Verdict, q.States)
	if q.Error != "" {
		s += " fault: " + q.Error
	}
	return s
}

// analysisDigest renders the reference-relevant fields of one analysis,
// one line per phase.
func analysisDigest(r *api.AnalyzeResponse) []string {
	out := []string{fmt.Sprintf("%s: %d instructions", r.Program, r.TotalInstructions)}
	for _, ph := range r.Phases {
		parts := []string{fmt.Sprintf("%s %s: %d instructions", r.Program, ph.Name, ph.Instructions)}
		for _, q := range ph.Queries {
			parts = append(parts, cellDigest(q))
		}
		out = append(out, strings.Join(parts, "; "))
	}
	for _, e := range r.Errors {
		out = append(out, "fault: "+e)
	}
	return out
}

// checkAnalysis compares one analysis response against the reference.
func (r *progRef) checkAnalysis(got *api.AnalyzeResponse) error {
	return compareLines(r.lines, analysisDigest(got))
}

// checkQuery compares one query result against the cell's reference.
func (c *cell) checkQuery(got api.QueryResult) error {
	if d := cellDigest(got); d != c.want {
		return fmt.Errorf("%s %s: got %q, reference %q", c.prog.Name, c.phase, d, c.want)
	}
	return nil
}

// compareLines returns an error naming the first line where got departs
// from want.
func compareLines(want, got []string) error {
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			return fmt.Errorf("result differs from the reference: got %q, reference %q", g, w)
		}
	}
	return nil
}
