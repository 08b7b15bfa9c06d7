package main

import "math"

// checkResult is one output check. A check counts only if it passes on
// the real outputs AND fails when one output is perturbed: the second
// half proves the check is not vacuous, and runs on every invocation.
type checkResult struct {
	Name            string `json:"name"`
	Samples         int    `json:"samples"`
	Passed          bool   `json:"passed"`
	PerturbedFailed bool   `json:"perturbed_failed"`
	Detail          string `json:"detail"`
}

// runCheck evaluates check on the real outputs and on a copy with one
// output perturbed. A check with no samples fails: it would be vacuous.
func runCheck(name string, samples int, real, perturbed func() error) checkResult {
	c := checkResult{Name: name, Samples: samples}
	if samples == 0 {
		c.Detail = "no samples to check"
		return c
	}
	if err := real(); err != nil {
		c.Detail = err.Error()
	} else {
		c.Passed = true
	}
	if err := perturbed(); err != nil {
		c.PerturbedFailed = true
		if c.Passed {
			c.Detail = "perturbed output rejected: " + err.Error()
		}
	} else if c.Passed {
		c.Detail = "perturbed output was accepted: the check is vacuous"
	}
	return c
}

// nextUp returns the adjacent float64 above v: the smallest perturbation
// a bit-identity check must catch.
func nextUp(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }

// sameBits reports exact float64 identity.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
