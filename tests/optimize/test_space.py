"""Tests for architecture design spaces."""

import re

import pytest

from repro.errors import ConfigurationError
from repro.optimize.space import DesignSpace


@pytest.fixture
def space(node130):
    return DesignSpace(
        node=node130,
        local_pairs=(1, 2),
        semi_global_pairs=(1, 2),
        global_pairs=(1,),
        permittivities=(3.9, 2.8),
        miller_factors=(2.0,),
        max_metal_layers=10,
    )


class TestEnumeration:
    def test_size(self, space):
        # 2 local x 2 semi x 1 global x 2 k x 1 M = 8; layer budget 10
        # kills local=2,semi=2 (5 pairs = 10 layers <= 10: kept) -> 8
        assert space.size() == 8

    def test_budget_prunes(self, node130):
        space = DesignSpace(
            node=node130,
            local_pairs=(1, 3),
            semi_global_pairs=(2,),
            global_pairs=(1,),
            permittivities=(3.9,),
            max_metal_layers=8,
        )
        specs = list(space)
        assert len(specs) == 1  # local=3 gives 6 pairs = 12 layers > 8
        assert specs[0].local_pairs == 1

    def test_deterministic_order(self, space):
        assert [s.permittivity for s in space][:2] == [3.9, 2.8]

    def test_candidates_valid(self, space):
        for spec in space:
            assert 2 * spec.num_pairs <= space.max_metal_layers


class TestValidation:
    def test_empty_tier_rejected(self, node130):
        with pytest.raises(ConfigurationError):
            DesignSpace(node=node130, semi_global_pairs=())

    def test_zero_local_rejected(self, node130):
        with pytest.raises(ConfigurationError):
            DesignSpace(node=node130, local_pairs=(0, 1))

    def test_bad_permittivity_rejected(self, node130):
        with pytest.raises(ConfigurationError):
            DesignSpace(node=node130, permittivities=(0.5,))

    @pytest.mark.parametrize(
        "field,values,named",
        [
            ("permittivities", (), "permittivities"),
            ("permittivities", (3.9, 2.8, float("nan")), "permittivities[2]"),
            ("permittivities", (float("inf"),), "permittivities[0]"),
            ("permittivities", (3.9, 0.5), "permittivities[1]"),
            ("miller_factors", (), "miller_factors"),
            ("miller_factors", (float("nan"),), "miller_factors[0]"),
            ("miller_factors", (2.0, float("inf")), "miller_factors[1]"),
            ("miller_factors", (2.0, 0.0), "miller_factors[1]"),
            ("miller_factors", (-1.0,), "miller_factors[0]"),
        ],
    )
    def test_every_material_class_bounded_by_name(self, node130, field, values, named):
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            DesignSpace(node=node130, **{field: values})

    def test_bad_layer_budget_rejected(self, node130):
        with pytest.raises(ConfigurationError):
            DesignSpace(node=node130, max_metal_layers=1)


class TestNeighbours:
    def test_moves_are_single_knob(self, space):
        start = space.default_spec()
        for neighbour in space.neighbours(start):
            diffs = sum(
                getattr(neighbour, field) != getattr(start, field)
                for field in (
                    "local_pairs",
                    "semi_global_pairs",
                    "global_pairs",
                    "permittivity",
                    "miller_factor",
                )
            )
            assert diffs == 1

    def test_neighbours_respect_budget(self, space):
        start = space.default_spec()
        for neighbour in space.neighbours(start):
            assert 2 * neighbour.num_pairs <= space.max_metal_layers

    def test_default_spec_is_smallest(self, space):
        spec = space.default_spec()
        assert spec.local_pairs == 1
        assert spec.semi_global_pairs == 1
        assert spec.global_pairs == 1
        assert spec.permittivity == 3.9  # most conservative material
