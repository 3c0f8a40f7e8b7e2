package coresim

import (
	"testing"
	"time"

	"repro/internal/opt"
)

func TestPickUnderPowerCap(t *testing.T) {
	// Three plans: fast+hungry, medium, slow+frugal.
	alts := []opt.Cost{
		{Time: 10 * time.Millisecond, Energy: 2},   // 200 W
		{Time: 50 * time.Millisecond, Energy: 2.5}, // 50 W
		{Time: 400 * time.Millisecond, Energy: 4},  // 10 W
	}
	if got := PickUnderPowerCap(alts, 500); got != 0 {
		t.Errorf("generous cap must pick the fastest, got %d", got)
	}
	if got := PickUnderPowerCap(alts, 100); got != 1 {
		t.Errorf("100 W cap must pick the medium plan, got %d", got)
	}
	if got := PickUnderPowerCap(alts, 20); got != 2 {
		t.Errorf("20 W cap must pick the frugal plan, got %d", got)
	}
	if got := PickUnderPowerCap(alts, 1); got != 2 {
		t.Errorf("impossible cap must pick the lowest-power plan, got %d", got)
	}
}

func TestPickUnderEnergyBudget(t *testing.T) {
	alts := []opt.Cost{
		{Time: 10 * time.Millisecond, Energy: 5},
		{Time: 100 * time.Millisecond, Energy: 1},
	}
	if got := PickUnderEnergyBudget(alts, 10); got != 0 {
		t.Errorf("big budget picks fastest, got %d", got)
	}
	if got := PickUnderEnergyBudget(alts, 2); got != 1 {
		t.Errorf("tight budget picks frugal, got %d", got)
	}
	if got := PickUnderEnergyBudget(alts, 0.1); got != 1 {
		t.Errorf("impossible budget picks min energy, got %d", got)
	}
}
