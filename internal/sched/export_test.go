package sched

import "repro/internal/energy"

// Test-only surface: served callers read the fleet's books through
// core.ScheduleReport, which adds the measured dynamic energy.

// FleetEnergy returns the physical fleet energy of the schedule.
func (r *MQResult) FleetEnergy() energy.Joules { return r.FleetDynamic + r.Static }
