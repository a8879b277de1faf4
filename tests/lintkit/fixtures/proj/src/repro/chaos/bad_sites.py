"""Fixture: chaos schedules that silently test nothing (test_fault_sites)."""

from repro.faultkit import FaultSpec, fault_point


def flaky_region(site_name, payload):
    fault_point(site_name, point=payload)


BROKEN_SCHEDULE = FaultSpec(site="fixture.pool.strat", kind="raise")

INLINE = '[{"site": "fixture.nope.*", "kind": "raise"}]'
