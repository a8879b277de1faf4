"""Tests for conductor and dielectric materials."""

import pytest

from repro.constants import EPS0
from repro.errors import ConfigurationError
from repro.tech.materials import (
    ALUMINIUM,
    COPPER,
    LOW_K_28,
    LOW_K_36,
    SIO2,
    Conductor,
    Dielectric,
)


class TestConductor:
    def test_copper_resistivity_in_range(self):
        assert 1.6e-8 <= COPPER.resistivity <= 3.0e-8

    def test_aluminium_is_worse_than_copper(self):
        assert ALUMINIUM.resistivity > COPPER.resistivity

    def test_zero_resistivity_rejected(self):
        with pytest.raises(ConfigurationError):
            Conductor(name="bad", resistivity=0.0)

    def test_negative_resistivity_rejected(self):
        with pytest.raises(ConfigurationError):
            Conductor(name="bad", resistivity=-1e-8)


class TestDielectric:
    def test_sio2_permittivity(self):
        assert SIO2.relative_permittivity == pytest.approx(3.9)

    def test_absolute_permittivity(self):
        assert SIO2.permittivity == pytest.approx(3.9 * EPS0)

    def test_low_k_ordering(self):
        assert (
            LOW_K_28.relative_permittivity
            < LOW_K_36.relative_permittivity
            < SIO2.relative_permittivity
        )

    def test_sub_vacuum_rejected(self):
        with pytest.raises(ConfigurationError):
            Dielectric(name="bad", relative_permittivity=0.9)

    def test_vacuum_boundary_allowed(self):
        d = Dielectric(name="vacuum", relative_permittivity=1.0)
        assert d.permittivity == pytest.approx(EPS0)

    def test_scaled_changes_only_permittivity(self):
        scaled = SIO2.scaled(2.0)
        assert scaled.relative_permittivity == pytest.approx(2.0)
        assert SIO2.relative_permittivity == pytest.approx(3.9)  # original intact

    def test_scaled_autogenerates_name(self):
        scaled = SIO2.scaled(2.5)
        assert "2.5" in scaled.name

    def test_scaled_custom_name(self):
        scaled = SIO2.scaled(2.5, name="airgap")
        assert scaled.name == "airgap"

    def test_scaled_validates(self):
        with pytest.raises(ConfigurationError):
            SIO2.scaled(0.5)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SIO2.relative_permittivity = 2.0
