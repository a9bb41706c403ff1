package rewrite_test

import (
	"testing"

	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/rosa"
	"privanalyzer/internal/vkernel"
)

// TestGoalCheckAllocs pins ROSA's per-state goal check at zero allocations:
// the compiled goal checker runs once for every explored state, and its
// guards read only the fixed element's variables, so neither a remainder
// configuration nor a Binding map may be built per candidate.
func TestGoalCheckAllocs(t *testing.T) {
	if rewrite.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	state := func(readSet *rewrite.Term, port int) *rewrite.Term {
		return rewrite.NewConfig(
			rosa.Process(1, rosa.UniformCreds(1000, 1000), rosa.SetOf(4), nil),
			rosa.Process(2, rosa.UniformCreds(0, 0), rosa.SetOf(5, 6), rosa.SetOf(6)),
			rosa.Process(3, rosa.UniformCreds(33, 33), readSet, nil),
			rosa.File(3, "/dev/mem", vkernel.MustMode("rw-r-----"), 0, 15),
			rosa.File(4, "/etc/passwd", vkernel.MustMode("rw-r--r--"), 0, 0),
			rosa.SocketObj(9, port),
			rosa.User(0), rosa.User(33), rosa.User(1000),
			rosa.GroupObj(0), rosa.GroupObj(15),
		)
	}
	sys := rosa.NewSystem()
	for _, c := range []struct {
		name string
		goal rewrite.Goal
		miss *rewrite.Term
		hit  *rewrite.Term
	}{
		{"GoalFileInReadSet", rosa.GoalFileInReadSet(3),
			state(rosa.SetOf(4), 8080), state(rosa.SetOf(3, 4), 8080)},
		{"GoalPortBoundBelow", rosa.GoalPortBoundBelow(1024),
			state(nil, 8080), state(nil, 22)},
	} {
		t.Run(c.name, func(t *testing.T) {
			check := rewrite.GoalChecker(sys, c.goal, rewrite.Options{})
			if check(c.miss) || !check(c.hit) {
				t.Fatalf("goal verdicts wrong: miss=%v hit=%v", check(c.miss), check(c.hit))
			}
			for _, s := range []*rewrite.Term{c.miss, c.hit} {
				if got := testing.AllocsPerRun(200, func() { check(s) }); got != 0 {
					t.Errorf("goal check on %s: %.1f allocs/op, want 0", s, got)
				}
			}
		})
	}
}
