"""The rank problem: architecture + design + targets in one object.

A :class:`RankProblem` is the complete input of Section 3's problem
statement: an interconnect architecture with fixed geometry, a WLD, a
repeater area budget (through the die model), and per-wire target delays
(through the target model).  It also owns coarsening (bunching/binning)
and the construction of :class:`~repro.assign.tables.AssignmentTables`,
so every solver consumes identical physics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Optional, Tuple

if TYPE_CHECKING:
    from .precompute import PrecomputeCache

from ..arch.builder import ArchitectureSpec, build_architecture
from ..arch.die import DieModel
from ..arch.stack import InterconnectArchitecture
from ..assign.tables import AssignmentTables, build_tables
from ..delay.target import LinearTargetModel, QuadraticTargetModel, TargetDelayModel
from ..errors import ConfigurationError, RankComputationError
from ..rc.via import DEFAULT_VIAS_PER_WIRE
from ..wld.coarsen import coarsen
from ..wld.distribution import WireLengthDistribution

#: Supported target-delay model names.
TARGET_MODELS = ("linear", "quadratic")


@dataclass(frozen=True)
class RankProblem:
    """Inputs of one rank computation.

    Attributes
    ----------
    arch:
        The interconnect architecture (topmost pair first).
    die:
        Die model: gate count, repeater fraction, areas, gate pitch.
    wld:
        Wire length distribution in gate pitches, rank order.
    clock_frequency:
        Target clock ``f_c`` in hertz (Table 4 column ``C``).
    target_kind:
        ``"linear"`` for the paper's ``d_i = (l_i/l_max)/f_c`` or
        ``"quadratic"`` for the Section 6 alternative.
    utilization:
        Usable routing fraction of die area per layer-pair.
    vias_per_wire:
        The paper's ``v``.
    pair_capacity_factor:
        Routing area of a layer-pair in units of die area (2.0 for the
        physical two-layers-per-pair reading, 1.0 for the paper's
        conservative pseudocode reading).
    driver_policy:
        ``"budgeted"`` (default) charges every delay-meeting wire's
        sized driver stage to the repeater budget; ``"free-bare"``
        grants free passage to wires whose minimum-size driver meets
        the target (ablation).
    """

    arch: InterconnectArchitecture
    die: DieModel
    wld: WireLengthDistribution
    clock_frequency: float
    target_kind: str = "linear"
    utilization: float = 1.0
    vias_per_wire: int = DEFAULT_VIAS_PER_WIRE
    pair_capacity_factor: float = 2.0
    driver_policy: str = "budgeted"

    def __post_init__(self) -> None:
        if self.clock_frequency <= 0:
            raise RankComputationError(
                f"clock frequency must be positive, got {self.clock_frequency!r}"
            )
        if self.target_kind not in TARGET_MODELS:
            raise RankComputationError(
                f"unknown target model {self.target_kind!r}; "
                f"choose from {TARGET_MODELS}"
            )
        if self.wld.num_groups == 0:
            raise RankComputationError("rank problem requires a non-empty WLD")
        if not 0.0 < self.utilization <= 1.0:
            raise RankComputationError(
                f"utilization must be in (0, 1], got {self.utilization!r}"
            )

    # ------------------------------------------------------------------
    # Derived models
    # ------------------------------------------------------------------

    @property
    def max_wire_length_m(self) -> float:
        """Physical length of the longest wire (``l_max``), metres."""
        return float(self.die.wire_length(self.wld.max_length))

    def target_model(self) -> TargetDelayModel:
        """Instantiate the configured target-delay model."""
        if self.target_kind == "linear":
            return LinearTargetModel(
                max_length=self.max_wire_length_m,
                clock_frequency=self.clock_frequency,
            )
        return QuadraticTargetModel(
            max_length=self.max_wire_length_m,
            clock_frequency=self.clock_frequency,
        )

    def coarsened_wld(
        self,
        bunch_size: Optional[int] = None,
        max_groups: Optional[int] = None,
    ) -> Tuple[WireLengthDistribution, int]:
        """Coarsen the WLD (binning then bunching) with error bound.

        Returns the coarse WLD and the rank error bound (max bunch
        count), per the paper's Section 5.1 analysis.
        """
        return coarsen(self.wld, bunch_size=bunch_size, max_groups=max_groups)

    def tables(
        self,
        bunch_size: Optional[int] = None,
        max_groups: Optional[int] = None,
        cache: Optional["PrecomputeCache"] = None,
    ) -> Tuple[AssignmentTables, int]:
        """Build assignment tables on the (optionally coarsened) WLD.

        The target model keeps ``l_max`` from the *original* WLD so that
        coarsening never changes the target-delay scale.  With a
        :class:`~repro.core.precompute.PrecomputeCache`, both the coarse
        WLD and the finished tables are reused across value-identical
        requests (see that module for the keying).
        """
        if cache is not None:
            return cache.tables(
                self, bunch_size=bunch_size, max_groups=max_groups
            )
        coarse, error_bound = self.coarsened_wld(
            bunch_size=bunch_size, max_groups=max_groups
        )
        return self.tables_on(coarse), error_bound

    def tables_on(self, coarse: WireLengthDistribution) -> AssignmentTables:
        """Build assignment tables on an already-coarsened WLD.

        Split out of :meth:`tables` so the precompute cache can reuse a
        shared coarse WLD across points while building per-point tables.
        """
        return build_tables(
            arch=self.arch,
            die=self.die,
            wld=coarse,
            target_model=self.target_model(),
            utilization=self.utilization,
            vias_per_wire=self.vias_per_wire,
            pair_capacity_factor=self.pair_capacity_factor,
            driver_policy=self.driver_policy,
        )

    # ------------------------------------------------------------------
    # Sweep knobs (return modified copies)
    # ------------------------------------------------------------------

    def with_clock_frequency(self, clock_frequency: float) -> "RankProblem":
        """Copy with a different target clock (Table 4 ``C`` knob)."""
        return replace(self, clock_frequency=clock_frequency)

    def with_repeater_fraction(self, fraction: float) -> "RankProblem":
        """Copy with a different repeater fraction (Table 4 ``R`` knob).

        Changing the fraction changes die area and gate pitch too,
        exactly as in the paper's Eq. (6) area model.
        """
        return replace(self, die=self.die.with_repeater_fraction(fraction))

    def with_arch(self, arch: InterconnectArchitecture) -> "RankProblem":
        """Copy with a different architecture."""
        return replace(self, arch=arch)

    @property
    def spec(self) -> ArchitectureSpec:
        """The :class:`~repro.arch.builder.ArchitectureSpec` of ``arch``.

        Raises :class:`~repro.errors.ConfigurationError` for a stack
        assembled by hand, which has no spec to derive variants from.
        """
        if self.arch.spec is None:
            raise ConfigurationError(
                f"architecture {self.arch.name!r} was not built from an "
                "ArchitectureSpec, so its variants cannot be derived"
            )
        return self.arch.spec

    def with_spec(self, **changes: Any) -> "RankProblem":
        """Copy with the stack rebuilt from ``replace(self.spec, **changes)``.

        The one path to an architecture variant (Table 4 ``K`` / ``M``,
        tier geometry, corners): every knob not named keeps the
        problem's own value.  A changed ``node`` moves the die to it.
        """
        spec = replace(self.spec, **changes)
        die = replace(self.die, node=spec.node) if "node" in changes else self.die
        return replace(self, arch=build_architecture(spec), die=die)

    def with_target_kind(self, target_kind: str) -> "RankProblem":
        """Copy with the other target-delay model (Section 6 ablation)."""
        return replace(self, target_kind=target_kind)
