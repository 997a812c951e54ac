package core

import (
	"context"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	sys := smallSystem(t, func(c *Config) {
		c.Learner.Iterations = 1
		c.Learner.SimPerIter = 10
		c.Learner.RealPerIter = 5
		c.Learner.InferenceRollouts = 1 // greedy only: deterministic given weights
	})
	if err := sys.TrainContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	blob, err := sys.Save()
	if err != nil {
		t.Fatal(err)
	}

	// A freshly built system with the same config must produce identical
	// plans after Load.
	fresh := smallSystem(t, func(c *Config) {
		c.Seed = 999 // different init; Load must overwrite it
		c.Learner.Iterations = 1
		c.Learner.SimPerIter = 10
		c.Learner.RealPerIter = 5
		c.Learner.InferenceRollouts = 1
	})
	if err := fresh.Load(blob); err != nil {
		t.Fatal(err)
	}
	q := sys.W.Test[0]
	a, _, err := sys.OptimizeContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := fresh.OptimizeContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Execute(a) != fresh.Execute(b) {
		t.Fatal("loaded system produces a different plan than the saved one")
	}
}

func TestLoadRejectsMismatchedConfig(t *testing.T) {
	sys := smallSystem(t, func(c *Config) {
		c.Learner.Iterations = 0
	})
	blob, err := sys.Save()
	if err != nil {
		t.Fatal(err)
	}
	other := smallSystem(t, func(c *Config) {
		c.MaxSteps = 5
		c.Learner.Iterations = 0
	})
	if err := other.Load(blob); err == nil {
		t.Fatal("mismatched maxsteps accepted")
	}
	twoAgents := smallSystem(t, func(c *Config) {
		c.Agents = 2
		c.Learner.Iterations = 0
	})
	if err := twoAgents.Load(blob); err == nil {
		t.Fatal("mismatched agent count accepted")
	}
}
