package rewrite

// GoalChecker exposes the per-state goal predicate a search with opts would
// use, so external tests can pin its cost on real rule systems.
func GoalChecker(s *System, goal Goal, opts Options) func(*Term) bool {
	return s.engine(opts, nil).goalChecker(goal)
}

// RaceEnabled mirrors raceEnabled for external tests.
const RaceEnabled = raceEnabled
