"""Builders for the paper's experimental setups.

The paper's Table 2 baseline: ILD permittivity 3.9, Miller coupling
factor 2.0, repeater area fraction 0.4, 2 semi-global + 1 global
layer-pairs, target clock 500 MHz; WLDs from the Davis model with Rent
exponent 0.6 for 1M / 4M / 10M gate designs; technology parameters from
Table 3 (180 / 130 / 90 nm).  :func:`baseline_problem` assembles a
:class:`~repro.core.problem.RankProblem` for any of these points, and
:func:`paper_baseline_130nm` is the specific design every Table 4 sweep
pivots around (1M gates at 130 nm).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Union

from ..arch.builder import ArchitectureSpec, build_architecture
from ..arch.die import DieModel
from ..obs.metrics import inc as _obs_inc
from ..obs.metrics import metrics_enabled as _metrics_enabled
from ..tech.node import TechnologyNode
from ..tech.presets import get_node
from ..wld.davis import DavisParameters, davis_wld
from ..wld.distribution import WireLengthDistribution
from .problem import RankProblem

#: Table 2 baseline values.
BASELINE_PERMITTIVITY = 3.9
BASELINE_MILLER = 2.0
BASELINE_REPEATER_FRACTION = 0.4
BASELINE_SEMI_GLOBAL_PAIRS = 2
BASELINE_GLOBAL_PAIRS = 1
BASELINE_LOCAL_PAIRS = 1
BASELINE_CLOCK_HZ = 500.0e6
BASELINE_RENT_EXPONENT = 0.6


@lru_cache(maxsize=16)
def _cached_davis(gate_count: int, rent_exponent: float) -> WireLengthDistribution:
    """Davis WLDs are deterministic and expensive enough to cache."""
    return davis_wld(DavisParameters(gate_count=gate_count, rent_exponent=rent_exponent))


def _davis_lookup(gate_count: int, rent_exponent: float) -> WireLengthDistribution:
    """Cache-aware Davis lookup that also feeds the metrics registry.

    The lru_cache keeps cumulative counters; the per-call delta is what
    lands in ``davis_cache.hits`` / ``davis_cache.misses``, so registry
    totals reflect exactly the lookups made while observability was on.
    """
    if not _metrics_enabled():
        return _cached_davis(gate_count, rent_exponent)
    before = _cached_davis.cache_info()
    wld = _cached_davis(gate_count, rent_exponent)
    after = _cached_davis.cache_info()
    _obs_inc("davis_cache.hits", after.hits - before.hits)
    _obs_inc("davis_cache.misses", after.misses - before.misses)
    return wld


def baseline_problem(
    node_name: Union[str, TechnologyNode],
    gate_count: int,
    clock_frequency: float = BASELINE_CLOCK_HZ,
    repeater_fraction: float = BASELINE_REPEATER_FRACTION,
    permittivity: float = BASELINE_PERMITTIVITY,
    miller_factor: float = BASELINE_MILLER,
    rent_exponent: float = BASELINE_RENT_EXPONENT,
    local_pairs: int = BASELINE_LOCAL_PAIRS,
    semi_global_pairs: int = BASELINE_SEMI_GLOBAL_PAIRS,
    global_pairs: int = BASELINE_GLOBAL_PAIRS,
    wld: Optional[WireLengthDistribution] = None,
    target_kind: str = "linear",
) -> RankProblem:
    """Assemble a paper-style rank problem.

    ``node_name`` names a built-in node or is a loaded
    :class:`~repro.tech.node.TechnologyNode` (e.g. from a node file).
    Parameters default to the Table 2 baseline; pass a pre-built ``wld``
    to skip Davis generation (e.g. for synthetic studies).
    """
    node = get_node(node_name) if isinstance(node_name, str) else node_name
    spec = ArchitectureSpec(
        node=node,
        local_pairs=local_pairs,
        semi_global_pairs=semi_global_pairs,
        global_pairs=global_pairs,
        miller_factor=miller_factor,
        permittivity=permittivity,
    )
    arch = build_architecture(spec)
    die = DieModel(
        node=node, gate_count=gate_count, repeater_fraction=repeater_fraction
    )
    if wld is None:
        wld = _davis_lookup(gate_count, rent_exponent)
    return RankProblem(
        arch=arch,
        die=die,
        wld=wld,
        clock_frequency=clock_frequency,
        target_kind=target_kind,
    )


def paper_baseline_130nm(**overrides) -> RankProblem:
    """The Table 4 pivot: 1M gates, 130 nm, Table 2 baseline parameters.

    Keyword overrides are forwarded to :func:`baseline_problem` (e.g.
    ``clock_frequency=1.0e9`` for one point of the ``C`` sweep).
    """
    params = dict(node_name="130nm", gate_count=1_000_000)
    params.update(overrides)
    return baseline_problem(**params)
