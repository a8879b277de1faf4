"""Array calls of the delay formulas agree element-for-element with
scalar calls.

The table build evaluates a whole layer-pair worth of wire groups per
call, while the slack report and the test oracles ask about one wire at
a time.  Both go through the same broadcasting function, so one array
call must reproduce the calls on its elements exactly — same IEEE
operations in the same order, so the comparison is ``==``, not
``approx``.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import get_node
from repro.delay.ottenbrayton import wire_delay
from repro.errors import DelayModelError
from repro.rc.models import WireRC


@pytest.fixture(scope="module")
def device():
    return get_node("130nm").device


RC = WireRC(resistance=5.0e4, capacitance=2.0e-10)


class TestWireDelayBatch:
    @settings(max_examples=25, deadline=None)
    @given(
        stages=st.lists(
            st.integers(min_value=1, max_value=40), min_size=1, max_size=8
        ),
        length=st.floats(min_value=1e-6, max_value=2e-2),
    )
    # ``length ** 2`` (libm pow) and ``x * x`` differ by one ulp here.
    @example(stages=[1, 1, 1, 1, 1], length=0.012414878978979606)
    def test_matches_scalar(self, device, stages, length):
        lengths = [length * (i + 1) for i in range(len(stages))]
        batch = wire_delay(RC, device, 4.0, stages, lengths)
        for i, (eta, l) in enumerate(zip(stages, lengths)):
            assert batch[i] == wire_delay(RC, device, 4.0, eta, l)

    def test_rejects_bad_inputs(self, device):
        with pytest.raises(DelayModelError):
            wire_delay(RC, device, 0.0, [1], [1e-3])
        with pytest.raises(DelayModelError):
            wire_delay(RC, device, [4.0, -1.0], [1, 1], [1e-3, 1e-3])
        with pytest.raises(DelayModelError):
            wire_delay(RC, device, 4.0, [0], [1e-3])
        with pytest.raises(DelayModelError):
            wire_delay(RC, device, 4.0, [1], [-1e-3])

    def test_sizes_broadcast(self, device):
        """Per-wire sizes: the slack report times bare drivers (size 1)
        and repeated wires (size s_opt) of one segment in one call."""
        batch = wire_delay(RC, device, [1.0, 4.0], [1, 3], [2e-3, 2e-3])
        assert batch[0] == wire_delay(RC, device, 1.0, 1, 2e-3)
        assert batch[1] == wire_delay(RC, device, 4.0, 3, 2e-3)
