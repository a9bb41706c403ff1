package interp_test

import (
	"testing"

	"privanalyzer/internal/autopriv"
	"privanalyzer/internal/caps"
	"privanalyzer/internal/interp"
	"privanalyzer/internal/programs"
)

// TestProfileTotalEqualsSteps runs every program model once with the
// hot-block profile and OnSteps attached: segment charging must credit the
// profile, the OnSteps batches and Result.Steps with the same total.
func TestProfileTotalEqualsSteps(t *testing.T) {
	ps, err := programs.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		t.Run(p.Name, func(t *testing.T) {
			ares, err := autopriv.Analyze(p.Module, autopriv.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var batched int64
			res, err := interp.Run(ares.Module, p.NewKernel(ares.RequiredPermitted), interp.Options{
				MainArgs: p.MainArgs,
				Profile:  true,
				OnSteps:  func(n int64, _ caps.PhaseKey) { batched += n },
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Profile.Total(); got != res.Steps {
				t.Errorf("Profile.Total() = %d, Steps = %d", got, res.Steps)
			}
			if batched != res.Steps {
				t.Errorf("OnSteps total = %d, Steps = %d", batched, res.Steps)
			}
		})
	}
}
