"""The stable ``repro.api`` facade.

Covers the API contract: the facade functions are re-exported from
:mod:`repro`, options are keyword-only, and the facade returns results
identical to the implementation modules it wraps.  The retired
spellings (``repro.core`` re-exports, positional options, the
``backend`` knob, ``bench``) are pinned as removed.
"""

import warnings

import pytest

import repro
from repro import api

from .conftest import make_tiny_problem


class TestFacadeSurface:
    def test_reexported_from_top_level(self):
        for name in api.__all__:
            if name == "optimize":
                # deliberately not re-exported: the name belongs to the
                # repro.optimize subpackage at top level
                assert repro.optimize.__name__ == "repro.optimize"
                continue
            assert getattr(repro, name) is getattr(api, name)

    def test_facade_matches_impl(self, node130):
        problem = make_tiny_problem(node130, [1200, 700, 300])
        from repro.core.rank import compute_rank as impl

        via_facade = api.compute_rank(problem, repeater_units=16)
        direct = impl(problem, repeater_units=16)
        assert via_facade == direct

    def test_backend_knob(self, node130):
        """There is one DP kernel, so no facade function takes
        ``backend=`` any more."""
        problem = make_tiny_problem(node130, [1200, 700, 300])
        with pytest.raises(TypeError, match="backend"):
            api.compute_rank(problem, repeater_units=16, backend="numpy")
        with pytest.raises(TypeError, match="backend"):
            api.sweep("toy", [5e8], lambda _: problem, backend="numpy")
        with pytest.raises(TypeError, match="backend"):
            api.corners(problem, repeater_units=8, backend="numpy")
        space = api.DesignSpace(
            node=problem.die.node,
            local_pairs=(1,),
            semi_global_pairs=(0,),
            global_pairs=(1,),
            permittivities=(3.9,),
            miller_factors=(2.0,),
            max_metal_layers=8,
        )
        with pytest.raises(TypeError, match="backend"):
            api.optimize(problem, space, repeater_units=8, backend="numpy")

    def test_corners_default_set(self, node130):
        from repro.analysis.corners import STANDARD_CORNERS

        problem = make_tiny_problem(node130, [900, 400])
        report = api.corners(problem, repeater_units=8)
        assert len(report.results) == len(STANDARD_CORNERS)

    def test_sweep(self, node130):
        base = make_tiny_problem(node130, [900, 400])
        result = api.sweep(
            "toy",
            [5e8, 1e9],
            lambda clock: base.with_clock(clock)
            if hasattr(base, "with_clock")
            else make_tiny_problem(node130, [900, 400], clock_frequency=clock),
            repeater_units=8,
        )
        assert len(result.points) == 2

    def test_bench_validates_repeats(self):
        """``bench`` (a two-kernel timer) is gone from the facade."""
        assert not hasattr(api, "bench")
        assert not hasattr(repro, "bench")
        assert "bench" not in api.__all__
        assert "bench" not in repro.__all__

    def test_optimize_rank_is_the_nonshadowing_spelling(self):
        """``api.optimize_rank`` is the same callable as ``api.optimize``
        under a name that survives top-level re-export (where plain
        ``optimize`` would shadow the ``repro.optimize`` subpackage)."""
        assert api.optimize_rank is api.optimize
        assert repro.optimize_rank is api.optimize
        assert repro.optimize.__name__ == "repro.optimize"

    def test_design_space_reexported(self):
        from repro.optimize.space import DesignSpace as impl

        assert api.DesignSpace is impl
        assert repro.DesignSpace is impl

    def test_solve_rank_request_round_trip(self):
        request = api.RankRequest(gates=20_000, bunch_size=2_000)
        result = api.solve_rank_request(request)
        assert result.rank > 0
        assert 0.0 < result.rank / result.total_wires <= 1.0


class TestDeprecationShims:
    """The deprecation shims are gone; these pin their removal."""

    def test_core_import_warns(self):
        import repro.core as core

        for name in ("compute_rank", "baseline_problem", "paper_baseline_130nm"):
            with pytest.raises(AttributeError, match=name):
                getattr(core, name)
            assert name not in core.__all__

    def test_core_unknown_attribute_raises(self):
        import repro.core as core

        with pytest.raises(AttributeError):
            core.definitely_not_a_thing

    def test_positional_options_warn_and_agree(self, node130):
        problem = make_tiny_problem(node130, [1200, 700, 300])
        with pytest.raises(TypeError, match="positional"):
            api.compute_rank(problem, "dp", None, None, 16)
        modern = api.compute_rank(
            problem, solver="dp", bunch_size=None, max_groups=None,
            repeater_units=16,
        )
        assert modern.rank > 0

    def test_too_many_positional_options_raise(self, node130):
        problem = make_tiny_problem(node130, [900])
        with pytest.raises(TypeError):
            api.compute_rank(
                problem, "dp", None, None, 16, False, None, None, "extra"
            )

    def test_top_level_import_does_not_warn(self):
        """``from repro import compute_rank`` is the supported spelling
        and must stay silent."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro import compute_rank  # noqa: F401
            from repro import baseline_problem  # noqa: F401
