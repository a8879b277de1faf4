"""Fixture: literal sites and globs that match them (test_fault_sites-clean)."""

from repro.faultkit import FaultSpec, fault_point


def guarded_region(payload):
    fault_point("fixture.pool.start", point=payload)
    fault_point("fixture.pool.result", point=payload)


SCHEDULE = FaultSpec(site="fixture.pool.*", kind="raise")

INLINE = '[{"site": "fixture.pool.result", "kind": "raise"}]'
