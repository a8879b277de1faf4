"""Golden-model tests: the closed forms vs numerical RC simulation.

The Otten--Brayton Eq. (3) closed form (what the rank metric runs on)
must track a discretized distributed-RC ladder integrated exactly —
an implementation-independent physics check.
"""

import pytest

from repro.delay.ottenbrayton import wire_delay
from repro.delay.repeater import min_stages_for_target, optimal_repeater_size
from repro.errors import DelayModelError
from repro.rc.models import WireRC
from repro.tech.device import DeviceParameters

from ..rc_ladder import simulate_segment_delay, simulate_wire_delay


@pytest.fixture(scope="module")
def rc():
    return WireRC(resistance=3.2e5, capacitance=3.0e-10)


@pytest.fixture(scope="module")
def device():
    return DeviceParameters(
        output_resistance=2290.0,
        input_capacitance=0.6e-15,
        parasitic_capacitance=0.4e-15,
        min_inverter_area=2.5e-14,
    )


class TestAgainstClosedForms:
    @pytest.mark.parametrize("length", [1e-4, 5e-4, 2e-3])
    @pytest.mark.parametrize("stages", [1, 3])
    def test_otten_brayton_within_five_percent(self, rc, device, length, stages):
        simulated = simulate_wire_delay(rc, device, 50.0, stages, length)
        closed = wire_delay(rc, device, 50.0, stages, length)
        assert closed == pytest.approx(simulated, rel=0.05)

    def test_simulated_repeater_benefit(self, rc, device):
        """Repeaters help long wires in the golden model too."""
        length = 4e-3
        assert simulate_wire_delay(rc, device, 50.0, 4, length) < (
            simulate_wire_delay(rc, device, 50.0, 1, length)
        )

    def test_simulated_optimal_size_beats_perturbed(self, rc, device):
        """Eq. (4) sizing is near-optimal in the golden model: the
        simulated delay at s_opt beats strongly mis-sized stages."""
        length = 1e-3
        s_opt = optimal_repeater_size(rc, device)
        best = simulate_wire_delay(rc, device, s_opt, 2, length)
        assert best < simulate_wire_delay(rc, device, s_opt / 4, 2, length)
        assert best < simulate_wire_delay(rc, device, s_opt * 4, 2, length)

    def test_min_stages_verdict_confirmed_by_simulation(self, rc, device):
        """If the closed form says eta stages meet a target, the golden
        model agrees to within its 5% band."""
        length = 2e-3
        size = optimal_repeater_size(rc, device)
        target = 1.15 * wire_delay(rc, device, size, 3, length)
        stages = min_stages_for_target(rc, device, length, target, size=size)
        assert stages is not None
        simulated = simulate_wire_delay(rc, device, size, stages, length)
        assert simulated <= target * 1.05


class TestConvergence:
    def test_section_refinement_converges(self, rc, device):
        coarse = simulate_segment_delay(rc, device, 40.0, 1e-3, sections=20)
        fine = simulate_segment_delay(rc, device, 40.0, 1e-3, sections=120)
        assert coarse == pytest.approx(fine, rel=0.02)

    def test_invalid_inputs(self, rc, device):
        with pytest.raises(DelayModelError):
            simulate_segment_delay(rc, device, 0.0, 1e-3)
        with pytest.raises(DelayModelError):
            simulate_segment_delay(rc, device, 1.0, -1e-3)
        with pytest.raises(DelayModelError):
            simulate_segment_delay(rc, device, 1.0, 1e-3, sections=1)
        with pytest.raises(DelayModelError):
            simulate_wire_delay(rc, device, 1.0, 0, 1e-3)
