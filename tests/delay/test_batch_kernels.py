"""Batch delay kernels agree element-for-element with the scalar models.

The vectorized table build (and through it the NumPy DP kernel) is
only trustworthy if every batched formula reproduces its scalar
counterpart exactly — same IEEE operations in the same order, so the
comparison is ``==``, not ``approx``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import get_node
from repro.delay.ottenbrayton import wire_delay, wire_delay_batch
from repro.delay.repeater import (
    optimal_repeater_size,
    optimal_repeater_size_batch,
)
from repro.errors import DelayModelError
from repro.rc.models import WireRC, stack_rc_arrays


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
        batch = wire_delay_batch(RC, device, 4.0, stages, lengths)
        for i, (eta, l) in enumerate(zip(stages, lengths)):
            assert batch[i] == wire_delay(RC, device, 4.0, eta, l)

    def test_rejects_bad_inputs(self, device):
        with pytest.raises(DelayModelError):
            wire_delay_batch(RC, device, 0.0, [1], [1e-3])
        with pytest.raises(DelayModelError):
            wire_delay_batch(RC, device, 4.0, [0], [1e-3])
        with pytest.raises(DelayModelError):
            wire_delay_batch(RC, device, 4.0, [1], [-1e-3])


class TestRepeaterSizeBatch:
    def test_matches_scalar_across_architecture(self, device):
        rcs = [
            WireRC(resistance=r, capacitance=c)
            for r, c in [(2e4, 1e-10), (8e4, 3e-10), (4e5, 2e-10)]
        ]
        batch = optimal_repeater_size_batch(stack_rc_arrays(rcs), device)
        for i, rc in enumerate(rcs):
            assert batch[i] == optimal_repeater_size(rc, device)

    def test_clamps_to_minimum_inverter(self, device):
        # Absurdly resistive wire: optimum below 1 must clamp to 1.
        rc = WireRC(resistance=1e12, capacitance=1e-18)
        assert optimal_repeater_size(rc, device) == 1.0
        arrays = stack_rc_arrays([rc])
        assert optimal_repeater_size_batch(arrays, device)[0] == 1.0


class TestStackRCArrays:
    def test_rc_product_matches_scalar_multiplication(self):
        rcs = [WireRC(resistance=3.0e4, capacitance=7.0e-10)]
        arrays = stack_rc_arrays(rcs)
        assert len(arrays) == 1
        assert arrays.rc_product[0] == rcs[0].rc_product
        assert arrays.rc_product.dtype == np.float64
